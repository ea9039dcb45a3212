// Event-queue work bounds shared by the tests that gate them.
//
// Measured at most 2.4 shifts per push and 0.9 scan steps per pop on
// tests/test_sim.cpp's adversarial mixes. A day width taken from the whole
// population's span put the near-term keys of those mixes into one
// bucket, costing thousands of shifts per push; one that counted tied
// keys in Brown's rule shrank to 1 ns behind same-instant bursts, costing
// up to 22 scans per pop on the scenario-shaped mix; one re-estimated only
// when a whole year scanned dry cost 4-11 scans per pop on the city mix
// and 8-30 on the tied head.
#pragma once

namespace mip::sim::test {

constexpr double kMaxShiftsPerPush = 4.0;
constexpr double kMaxScansPerPop = 1.5;

}  // namespace mip::sim::test
