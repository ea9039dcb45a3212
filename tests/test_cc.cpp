// Unit tests for the pluggable congestion controllers (ISSUE 10):
// trendline overuse detection on synthetic delay ramps, the GE-burst vs
// queue-loss discrimination between the delay and loss controllers,
// pacing release spacing, the StaticController bit-identity goldens, and
// the spurious-RTO-after-handoff regression.
#include <gtest/gtest.h>

#include <map>

#include "cc_leg.h"
#include "transport/cc/delay_gradient.h"
#include "transport/cc/loss_rate.h"
#include "transport/cc/paced_sender.h"

using namespace mip;
using namespace mip::transport;

namespace {

constexpr sim::TimePoint ms(std::int64_t v) { return sim::milliseconds(v); }

/// Drains transitions and returns how many have the given kind.
std::size_t count_kind(std::vector<cc::Transition>& bag, const char* kind) {
    std::size_t n = 0;
    for (const cc::Transition& t : bag) {
        if (std::string_view(t.kind) == kind) ++n;
    }
    return n;
}

/// One synthetic ack: segment sent at @p send, acked at @p recv.
cc::AckSample ack(sim::TimePoint send, sim::TimePoint recv, double delivery_bps = 0.0) {
    cc::AckSample s;
    s.acked_bytes = 1000;
    s.send_time = send;
    s.recv_time = recv;
    s.delivery_rate_bps = delivery_bps;
    s.rtt = recv - send;
    return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Delay-gradient controller
// ---------------------------------------------------------------------------

// A steady one-way delay ramp — each segment queues 4 ms longer than the
// one before, the signature of a filling bottleneck — must drive the
// trendline over the adaptive threshold and trigger an overuse backoff
// below the initial rate.
TEST(DelayGradient, OveruseOnDelayRamp) {
    cc::DelayGradientController dg({.mss = 1000, .initial_rto = ms(200)});
    const double initial_rate = dg.state().pacing_rate_bps;

    std::vector<cc::Transition> transitions;
    for (int i = 0; i < 100; ++i) {
        const sim::TimePoint send = ms(10) * i;
        const sim::TimePoint recv = send + ms(50) + ms(4) * i;  // ramp: +4 ms/segment
        dg.on_rtt_sample(recv - send, recv);
        dg.on_ack(ack(send, recv, 500e3));
        for (cc::Transition& t : dg.take_transitions()) transitions.push_back(std::move(t));
        if (count_kind(transitions, "overuse-backoff") > 0) break;
    }

    EXPECT_GT(count_kind(transitions, "overuse-backoff"), 0u)
        << "a 4 ms/segment delay ramp never fired the overuse detector";
    EXPECT_LT(dg.state().pacing_rate_bps, initial_rate);
}

// A flat delay profile must keep the detector in Normal and let the
// multiplicative-increase path grow the rate — no false overuse from a
// constant (even large) base delay.
TEST(DelayGradient, CalmPathGrowsRate) {
    cc::DelayGradientController dg({.mss = 1000, .initial_rto = ms(200)});
    const double initial_rate = dg.state().pacing_rate_bps;

    for (int i = 0; i < 80; ++i) {
        const sim::TimePoint send = ms(30) * i;
        const sim::TimePoint recv = send + ms(50);  // constant one-way delay
        dg.on_rtt_sample(recv - send, recv);
        dg.on_ack(ack(send, recv, 800e3));
    }

    EXPECT_EQ(dg.signal(), cc::DelayGradientController::Signal::Normal);
    EXPECT_LT(dg.trend_ms(), dg.threshold_ms());
    EXPECT_GT(dg.state().pacing_rate_bps, initial_rate);
    EXPECT_TRUE(dg.take_transitions().empty());
}

// GE-style wireless loss — an RTO with *no* delay growth behind it — is
// not congestion. The delay controller halves once on the timeout
// (rto-backoff) but must not read the loss as queue pressure: the signal
// stays Normal and the rate climbs back with continued flat-delay acks.
TEST(DelayGradient, BurstLossWithoutDelayGrowthRecovers) {
    cc::DelayGradientController dg({.mss = 1000, .initial_rto = ms(200)});

    auto feed_flat = [&](int from, int count) {
        for (int i = from; i < from + count; ++i) {
            const sim::TimePoint send = ms(30) * i;
            const sim::TimePoint recv = send + ms(50);
            dg.on_rtt_sample(recv - send, recv);
            dg.on_ack(ack(send, recv, 800e3));
            EXPECT_NE(dg.signal(), cc::DelayGradientController::Signal::Overuse);
        }
    };

    feed_flat(0, 40);
    dg.on_loss({.bytes = 1000, .consecutive_timeouts = 1, .at = ms(30) * 40});
    std::vector<cc::Transition> after_loss = dg.take_transitions();
    EXPECT_EQ(count_kind(after_loss, "rto-backoff"), 1u);
    const double dip = dg.state().pacing_rate_bps;

    feed_flat(41, 60);
    EXPECT_GT(dg.state().pacing_rate_bps, dip)
        << "rate did not recover after a non-congestive loss on a flat-delay path";
}

// ---------------------------------------------------------------------------
// Loss/delivery-rate controller
// ---------------------------------------------------------------------------

// The windowed max filter must track the delivery rate, and a GE loss
// burst must (by design — this controller is delay-blind) be mistaken
// for congestion: the bandwidth estimate backs off and the loss-rate
// filter dampens the pacing gain.
TEST(LossRate, BurstLossReadAsCongestion) {
    cc::LossRateController lr({.mss = 1000, .initial_rto = ms(200)});

    for (int i = 0; i < 40; ++i) {
        const sim::TimePoint send = ms(20) * i;
        const sim::TimePoint recv = send + ms(50);
        lr.on_rtt_sample(recv - send, recv);
        lr.on_ack(ack(send, recv, 800e3));
    }
    EXPECT_DOUBLE_EQ(lr.max_bandwidth_bps(), 800e3);
    EXPECT_DOUBLE_EQ(lr.loss_rate(), 0.0);
    lr.take_transitions();
    const double before_burst = lr.state().pacing_rate_bps;

    // A five-RTO Gilbert-Elliott burst right after the steady window.
    for (int k = 1; k <= 5; ++k) {
        lr.on_loss({.bytes = 1000,
                    .consecutive_timeouts = static_cast<unsigned>(k),
                    .at = ms(800) + ms(10) * k});
    }
    EXPECT_LT(lr.max_bandwidth_bps(), 0.5 * 800e3)
        << "the loss controller should (wrongly) back its pipe estimate off";
    EXPECT_GT(lr.loss_rate(), 0.10);

    // The next ack-driven refresh sees the lossy window and dampens.
    const sim::TimePoint t = ms(920);
    lr.on_ack(ack(t - ms(50), t));
    std::vector<cc::Transition> trans = lr.take_transitions();
    EXPECT_GT(count_kind(trans, "rto-backoff"), 0u);
    EXPECT_EQ(count_kind(trans, "loss-dampen"), 1u);
    EXPECT_LT(lr.state().pacing_rate_bps, before_burst);
}

// ---------------------------------------------------------------------------
// Spurious-RTO-after-handoff regression
// ---------------------------------------------------------------------------

// After a route change the adaptive controllers must widen their RTO the
// way a fresh path deserves (rttvar >= srtt) and drop the old path's
// delay floor: on a handoff from a 100 ms path to a 250 ms path the
// first ack must arrive before the retransmission timer fires.
template <typename Controller>
void expect_rto_widens_after_route_change() {
    Controller ctl({.mss = 1000, .initial_rto = ms(200)});
    for (int i = 0; i < 8; ++i) {
        ctl.on_rtt_sample(ms(100), ms(110) * (i + 1));
    }
    const sim::Duration rto_before = ctl.state().rto;
    ASSERT_GT(ctl.min_rtt(), 0);

    ctl.on_route_change(ms(1000));

    EXPECT_GT(ctl.state().rto, rto_before);
    EXPECT_GE(ctl.state().rto, ms(400))
        << "a 250 ms RTT step on the new path would fire a spurious RTO";
    EXPECT_EQ(ctl.min_rtt(), 0) << "old path's delay floor survived the handoff";
    std::vector<cc::Transition> trans = ctl.take_transitions();
    EXPECT_EQ(count_kind(trans, "route-change-reset"), 1u);
}

TEST(RouteChange, DelayGradientWidensRto) {
    expect_rto_widens_after_route_change<cc::DelayGradientController>();
}

TEST(RouteChange, LossRateWidensRto) {
    expect_rto_widens_after_route_change<cc::LossRateController>();
}

// The detector history must not survive the handoff: a ramp that was one
// sample short of overuse on the old path plus flat acks on the new path
// must never fire.
TEST(RouteChange, DelayGradientDropsTrendHistory) {
    cc::DelayGradientController dg({.mss = 1000, .initial_rto = ms(200)});
    for (int i = 0; i < 12; ++i) {
        const sim::TimePoint send = ms(10) * i;
        const sim::TimePoint recv = send + ms(50) + ms(4) * i;
        dg.on_rtt_sample(recv - send, recv);
        dg.on_ack(ack(send, recv, 500e3));
    }
    dg.on_route_change(ms(500));
    dg.take_transitions();

    // New path: higher base delay (the RTT step) but perfectly flat.
    for (int i = 0; i < 40; ++i) {
        const sim::TimePoint send = ms(500) + ms(30) * i;
        const sim::TimePoint recv = send + ms(250);
        dg.on_rtt_sample(recv - send, recv);
        dg.on_ack(ack(send, recv, 500e3));
        EXPECT_NE(dg.signal(), cc::DelayGradientController::Signal::Overuse)
            << "the old path's ramp or the RTT step read as overuse after handoff";
    }
    std::vector<cc::Transition> trans = dg.take_transitions();
    EXPECT_EQ(count_kind(trans, "overuse-backoff"), 0u);
}

// ---------------------------------------------------------------------------
// Paced sender
// ---------------------------------------------------------------------------

// At 800 kbps a 1000-byte segment serializes in exactly 10 ms: releases
// must be spaced by that, and a disabled pacer never blocks.
TEST(PacedSender, ReleaseSpacing) {
    cc::PacedSender pacer;
    EXPECT_TRUE(pacer.can_send(0));  // rate 0 = pacing off

    pacer.set_rate(800e3);
    const sim::TimePoint t0 = ms(100);
    pacer.reset(t0);  // pin the schedule: no idle credit in this test
    ASSERT_TRUE(pacer.can_send(t0));
    pacer.on_sent(1000, t0);
    EXPECT_EQ(pacer.next_release(), t0 + ms(10));
    EXPECT_FALSE(pacer.can_send(t0));
    EXPECT_FALSE(pacer.can_send(t0 + ms(9)));
    EXPECT_TRUE(pacer.can_send(t0 + ms(10)));

    // Back-to-back sends accumulate serialization time.
    pacer.on_sent(1000, t0 + ms(10));
    EXPECT_EQ(pacer.next_release(), t0 + ms(20));
}

// After a long idle gap the schedule must not owe a giant burst: debt is
// forgiven beyond kMaxBurstDebt, and reset() forgives it entirely.
TEST(PacedSender, IdleDebtForgiveness) {
    cc::PacedSender pacer;
    pacer.set_rate(800e3);
    pacer.on_sent(1000, ms(0));  // next release at 10 ms

    // Sending again after 1 s of idle: the base is now - 5 ms, not the
    // stale 10 ms mark (which would permit a 990 ms catch-up burst...
    // of exactly the kind the pacer exists to prevent).
    pacer.on_sent(1000, ms(1000));
    EXPECT_EQ(pacer.next_release(), ms(1000) - cc::PacedSender::kMaxBurstDebt + ms(10));
    EXPECT_TRUE(pacer.can_send(ms(1005)));

    pacer.reset(ms(2000));
    EXPECT_EQ(pacer.next_release(), ms(2000));
    EXPECT_TRUE(pacer.can_send(ms(2000)));
}

// ---------------------------------------------------------------------------
// StaticController bit-identity
// ---------------------------------------------------------------------------

// The default controller must be inert: unlimited window, pacing off,
// the config's RTO, and no reaction to any feedback.
TEST(StaticController, InertUnderFeedback) {
    auto ctl = cc::factory_by_name("static")({.mss = 1000, .initial_rto = ms(350)});
    EXPECT_STREQ(ctl->name(), "static");
    EXPECT_EQ(ctl->state().cwnd_bytes, std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(ctl->state().pacing_rate_bps, 0.0);
    EXPECT_EQ(ctl->state().rto, ms(350));

    ctl->on_packet_sent({.bytes = 1000, .sent_at = ms(1)});
    ctl->on_ack(ack(ms(1), ms(51), 800e3));
    ctl->on_rtt_sample(ms(50), ms(51));
    ctl->on_loss({.bytes = 1000, .consecutive_timeouts = 3, .at = ms(400)});
    ctl->on_route_change(ms(500));

    EXPECT_EQ(ctl->state().cwnd_bytes, std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(ctl->state().pacing_rate_bps, 0.0);
    EXPECT_EQ(ctl->state().rto, ms(350));
    EXPECT_TRUE(ctl->take_transitions().empty());
}

// The whole point of the refactor's compatibility story: the default
// transport::Config run of every golden leg must reproduce the
// pre-refactor trace stream byte for byte — same digest, same segment /
// retransmission / hop / wire-byte counts, same completion time.
TEST(StaticController, BitIdenticalToPreRefactorGoldens) {
    const std::map<std::string, std::string> golden =
        bench_cc::load_golden(CC_GOLDEN_DIR, /*smoke=*/true);
    ASSERT_EQ(golden.size(), 4u);

    for (const core::OutMode mode : {core::OutMode::IE, core::OutMode::DE}) {
        for (const bench_cc::Plan plan :
             {bench_cc::Plan::Squeeze, bench_cc::Plan::Wireless}) {
            bench_cc::LegParams p;
            p.mode = mode;
            p.plan = plan;
            p.smoke = true;
            const bench_cc::LegResult r = bench_cc::run_leg(p);
            ASSERT_TRUE(golden.count(r.label)) << r.label;
            EXPECT_EQ(bench_cc::render_leg(r), golden.at(r.label)) << r.label;
        }
    }
}
