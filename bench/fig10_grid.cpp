// Figure 10 — Internet Mobility 4x4.
//
// The paper's central result: of the sixteen (incoming x outgoing)
// combinations, seven are useful, three are valid but would not normally
// be used, and six do not work with current protocols.
//
// We *measure* the grid rather than assume it: for each cell, a UDP
// request/response conversation is set up in which the correspondent
// addresses the mobile host per the row's In-mode and the mobile host
// replies per the column's Out-mode. Like any real transport, the
// correspondent only accepts a response that comes from the address it
// sent to ("the correspondent host will have no way to associate the
// reply with the packet that caused it", §6.5). The measured grid must
// match classify_combo() — the paper's shading — exactly, and under a
// visited network that filters foreign sources exactly the protocol-valid
// Out-DH cells outside Row C must go dark; otherwise the binary exits 1.
#include "common.h"

#include <array>
#include <utility>
#include <vector>

#include "transport/udp_service.h"

using namespace mip;
using namespace mip::core;

namespace {

struct CellResult {
    bool works = false;
    double rtt_ms = 0.0;
    std::size_t ip_bytes = 0;
    /// The delivery-decision audit trail behind this cell (docs/
    /// TRACE_FORMAT.md §6): why the mobile host answered in the mode the
    /// column dictates.
    std::string decision_chain;
};

constexpr std::uint16_t kServicePort = 7000;

CellResult run_cell(InMode in, OutMode out, bool foreign_filter = false,
                    const bench::HarnessOptions& opt = {}) {
    WorldConfig cfg;
    cfg.foreign_egress_antispoof = foreign_filter;
    World world{cfg};

    CorrespondentConfig ccfg;
    const bool ch_mobile_aware = in == InMode::DE || in == InMode::DH;
    if (ch_mobile_aware) {
        ccfg.awareness = Awareness::MobileAware;
    } else if (out == OutMode::DE) {
        // Out-DE "requires only decapsulation capability of the
        // correspondent host" (Figure 10 caption) — capability, not full
        // mobile-awareness. The CH still sends In-IE.
        ccfg.awareness = Awareness::DecapCapable;
    }
    CorrespondentHost& ch = world.create_correspondent(
        ccfg, in == InMode::DH ? Placement::ForeignLan : Placement::CorrLan);

    MobileHostConfig mcfg = world.mobile_config();
    mcfg.enable_port_heuristics = false;  // the cell dictates the mode, not ports
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));
    world.enable_decision_log();
    if (!world.attach_mobile_foreign()) return {};
    if (ch_mobile_aware) {
        ch.learn_binding(world.mh_home_addr(), world.mh_care_of_addr(), sim::seconds(3600));
    }

    // The mobile host's responder: replies from the address the column
    // dictates (home for IE/DE/DH — routed per the forced mode — or the
    // care-of address for DT).
    auto responder = mh.udp().open(kServicePort);
    if (out == OutMode::DT) {
        responder->bind_address(world.mh_care_of_addr());
        // Out-DT traffic never consults the method cache (the care-of
        // address is a plain local source); record the cell's configured
        // choice by hand so every cell's chain is non-empty.
        mip::obs::DecisionEvent ev;
        ev.when = world.sim.now();
        ev.node = "mobile-host";
        ev.correspondent = ch.address().to_string();
        ev.trigger = "forced";
        ev.test = "cell-config";
        ev.input = "bind care-of address";
        ev.passed = true;
        ev.from_mode = to_string(OutMode::DT);
        ev.to_mode = to_string(OutMode::DT);
        ev.detail = "Out-DT bypasses the method cache";
        world.decisions.record(std::move(ev));
    } else {
        responder->bind_address(world.mh_home_addr());
        mh.force_mode(ch.address(), out);
    }
    responder->set_receiver([&](std::span<const std::uint8_t> data,
                                const transport::RxMeta& meta) {
        responder->send_to(meta.peer.addr, meta.peer.port,
                           std::vector<std::uint8_t>(data.begin(), data.end()));
    });

    // The correspondent's client: sends to the row's target address and
    // accepts only replies from that same endpoint.
    const net::Ipv4Address target =
        in == InMode::DT ? world.mh_care_of_addr() : world.mh_home_addr();
    auto client = ch.udp().open();
    bool accepted = false;
    sim::TimePoint sent_at = 0;
    sim::TimePoint got_at = 0;
    client->set_receiver([&](std::span<const std::uint8_t>, const transport::RxMeta& meta) {
        if (meta.peer.addr == target && meta.peer.port == kServicePort) {
            accepted = true;
            got_at = world.sim.now();
        }
    });

    // Warm-up exchange (ARP, etc.), then the measured one.
    for (int round = 0; round < 2; ++round) {
        accepted = false;
        world.trace.clear();
        sent_at = world.sim.now();
        client->send_to(target, kServicePort, {0x4d, 0x34, 0x78, 0x34});
        world.run_for(sim::seconds(3));
        if (!accepted) break;
    }

    CellResult r;
    r.works = accepted;
    r.rtt_ms = accepted ? sim::to_milliseconds(got_at - sent_at) : 0.0;
    r.ip_bytes = world.trace.ip_tx_bytes();
    r.decision_chain = world.decisions.chain_string(ch.address().to_string());
    const std::string label =
        to_string(in) + "_" + to_string(out) + (foreign_filter ? "_filtered" : "");
    bench::export_metrics(opt, world, "fig10", label);
    bench::export_decisions(opt, world.decisions, "fig10", label);
    return r;
}

const char* class_mark(ComboClass c) {
    switch (c) {
        case ComboClass::Useful: return " ";
        case ComboClass::ValidUnused: return "~";
        case ComboClass::Broken: return "#";
    }
    return "?";
}

/// Protocol-valid Out-DH cells outside Row C (In-IE and In-DE): the cells a
/// visited network's egress anti-spoofing filter kills.
constexpr int kFilteredDhFailures = 2;

int print_figure(const bench::HarnessOptions& opt) {
    bench::print_header(
        "Figure 10: Internet Mobility 4x4 — the measured grid",
        "Each cell: measured works/FAILS (+ RTT ms, IPv4 bytes on all\n"
        "wires). Predicted shading: ' '=useful, '~'=valid-but-unused,\n"
        "'#'=broken. A '!' marks disagreement with the paper's grid.");

    std::printf("%-8s", "");
    for (OutMode out : kAllOutModes) {
        std::printf("  %-21s", to_string(out).c_str());
    }
    std::printf("\n");

    int mismatches = 0;
    std::array<std::array<bool, kAllOutModes.size()>, kAllInModes.size()> clean_works{};
    GridCensus measured;
    std::vector<std::pair<std::string, std::string>> chains;
    for (std::size_t row = 0; row < kAllInModes.size(); ++row) {
        const InMode in = kAllInModes[row];
        std::printf("%-8s", to_string(in).c_str());
        for (std::size_t col = 0; col < kAllOutModes.size(); ++col) {
            const OutMode out = kAllOutModes[col];
            const CellResult cell = run_cell(in, out, /*foreign_filter=*/false, opt);
            clean_works[row][col] = cell.works;
            chains.emplace_back("In-" + to_string(in) + " x Out-" + to_string(out),
                                cell.decision_chain);
            const ComboClass predicted = classify_combo(in, out);
            const bool should_work = predicted != ComboClass::Broken;
            const bool agree = cell.works == should_work;
            if (!agree) ++mismatches;
            if (cell.works) {
                predicted == ComboClass::ValidUnused ? ++measured.valid_unused
                                                     : ++measured.useful;
                std::printf("  %s%s %5.1fms %7zuB", agree ? class_mark(predicted) : "!",
                            "ok ", cell.rtt_ms, cell.ip_bytes);
            } else {
                ++measured.broken;
                std::printf("  %s%-19s", agree ? "#" : "!", "FAILS");
            }
        }
        std::printf("\n");
    }

    std::printf("\nmeasured census: %d useful + %d valid-unused work, %d broken\n",
                measured.useful, measured.valid_unused, measured.broken);
    std::printf("paper census:    7 useful + 3 valid-unused work, 6 broken\n");
    std::printf("grid agreement:  %s (%d mismatches)\n\n",
                mismatches == 0 ? "EXACT" : "MISMATCH", mismatches);
    std::printf(
        "Shape check: working cells get cheaper left to right (less\n"
        "encapsulation, shorter paths) and faster down the rows (In-IE\n"
        "detours via the home agent; In-DH/DT go direct).\n\n");

    // --- the audit trail behind the grid -----------------------------------
    // Every cell's outgoing mode is the end of a recorded decision chain
    // (docs/TRACE_FORMAT.md §6): which test ran, its input, pass/fail, and
    // the mode transition it caused.
    std::printf("decision chains (why each cell answered in its column's mode):\n");
    for (const auto& [cell, chain] : chains) {
        std::printf("%s:\n%s", cell.c_str(),
                    chain.empty() ? "  (no decisions recorded)\n" : chain.c_str());
    }
    std::printf("\n");

    // --- the abstract's second dimension: network permissiveness -----------
    // The same grid under a visited network that filters foreign sources:
    // the Out-DH column (except the Row C same-segment cell, which never
    // crosses the boundary) goes dark for *environmental* reasons — the
    // combination is protocol-valid but the packets never escape.
    std::printf("same grid, visited network with egress anti-spoofing:\n");
    std::printf("%-8s", "");
    for (OutMode out : kAllOutModes) {
        std::printf("  %-9s", to_string(out).c_str());
    }
    std::printf("\n");
    int filtered_dh_failures = 0;
    int filtered_other_changes = 0;
    for (std::size_t row = 0; row < kAllInModes.size(); ++row) {
        const InMode in = kAllInModes[row];
        std::printf("%-8s", to_string(in).c_str());
        for (std::size_t col = 0; col < kAllOutModes.size(); ++col) {
            const OutMode out = kAllOutModes[col];
            const bool works = run_cell(in, out, /*foreign_filter=*/true, opt).works;
            const bool valid_dh_outside_row_c = out == OutMode::DH && in != InMode::DH &&
                                                classify_combo(in, out) != ComboClass::Broken;
            if (!works && valid_dh_outside_row_c) {
                ++filtered_dh_failures;
            } else if (works != clean_works[row][col]) {
                ++filtered_other_changes;
            }
            std::printf("  %-9s", works ? "ok" : "FAILS");
        }
        std::printf("\n");
    }
    std::printf(
        "\nOut-DH now fails in %d protocol-valid cells: 'the best choice ...\n"
        "depends on ... the permissiveness of the networks over which the\n"
        "packets travel' (abstract). The Row C cell survives because\n"
        "same-segment traffic never reaches the boundary router.\n",
        filtered_dh_failures);

    bench::Verdict verdict;
    verdict.check(mismatches == 0, "%d cell(s) of the measured grid disagree with the paper's.",
                  mismatches);
    verdict.check(filtered_dh_failures == kFilteredDhFailures,
                  "egress filtering killed %d protocol-valid Out-DH cell(s) outside Row C, "
                  "not %d.",
                  filtered_dh_failures, kFilteredDhFailures);
    verdict.check(filtered_other_changes == 0,
                  "egress filtering changed %d other cell(s) of the grid.",
                  filtered_other_changes);
    return verdict.exit_status(
        "Grid matches the paper's; egress filtering kills exactly the protocol-valid "
        "Out-DH cells outside Row C.");
}

void BM_GridClassification(benchmark::State& state) {
    for (auto _ : state) {
        for (InMode in : kAllInModes) {
            for (OutMode out : kAllOutModes) {
                benchmark::DoNotOptimize(classify_combo(in, out));
            }
        }
    }
}
BENCHMARK(BM_GridClassification);

void BM_GridCellConversation(benchmark::State& state) {
    // Full simulated conversation for the canonical useful cell of each row.
    static const std::pair<InMode, OutMode> kCells[] = {
        {InMode::IE, OutMode::IE},
        {InMode::DE, OutMode::DH},
        {InMode::DH, OutMode::DH},
        {InMode::DT, OutMode::DT},
    };
    const auto [in, out] = kCells[state.range(0)];
    std::size_t worked = 0;
    for (auto _ : state) {
        worked += run_cell(in, out).works;
    }
    state.SetLabel(to_string(in) + "/" + to_string(out));
    state.counters["works"] = benchmark::Counter(
        static_cast<double>(worked) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GridCellConversation)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Iterations(1);

}  // namespace

M4X4_BENCH_MAIN(print_figure)
