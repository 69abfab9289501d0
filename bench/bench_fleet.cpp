/**
 * @file
 * Fleet-serving benchmark (DESIGN.md §15): device-steps/sec (arrivals
 * processed across the whole fleet per wall second), energy, and QoS
 * as fleet size grows, at 1x and 4x contention. The --check gate runs
 * a 1000-device fleet through the 2x-contention scenario and fails
 * unless (a) the fleet completes with a positive device-steps/sec
 * figure and (b) the fleet checksum is bit-equal between --shards 1
 * and --shards 4 — the cross-shard determinism contract, enforced in
 * the perf-gate CI job. Results land in BENCH_fleet.json.
 *
 * Memory gate (DESIGN.md §18): before the throughput sweep — peak RSS
 * (VmHWM) is monotone, so the million-device fleet must run while the
 * process is still small — a --memory-devices fleet (default 1000000)
 * of fixed-policy devices runs one contention epoch sweep with
 * aggregate stats, and --check fails unless it completes under
 * --memory-budget bytes/device (default 4096; measured ~1.7 KB).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "dnn/model_zoo.h"
#include "obs/json.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "util/logging.h"

using namespace autoscale;

namespace {

/** One fleet run's measurement. */
struct Measurement {
    int devices = 0;
    double contention = 1.0;
    std::int64_t arrivals = 0;
    std::int64_t served = 0;
    std::int64_t qosViolations = 0;
    double energyJ = 0.0;
    double seconds = 0.0;
    std::uint64_t checksum = 0;

    double
    deviceStepsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(arrivals) / seconds
                             : 0.0;
    }
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

serve::FleetConfig
fleetConfig(int devices, double contention, std::int64_t requests,
            std::uint64_t seed, int shards)
{
    serve::FleetConfig fleet;
    // No fault plan: injected WLAN faults would trip the breakers and
    // push everything onto the local fallback, hiding the shared-infra
    // contention this benchmark is about.
    fleet.serve.scenario = env::ScenarioId::D3;
    fleet.serve.totalRequests = requests;
    fleet.serve.seed = seed;
    // Throughput of the fleet loop itself: skip pre-training (device 0
    // would train once and warm-start the rest, but even that single
    // run would dominate small-fleet timings). A remote-only policy
    // keeps every request on the shared edge so contention actually
    // shapes the sweep.
    fleet.serve.trainRunsPerCombo = 0;
    fleet.serve.policyName = "connected-edge";
    fleet.devices = devices;
    fleet.shards = shards;
    // Short epochs: at 2x overload the whole arrival burst spans only a
    // few hundred virtual milliseconds, and contention feeds back one
    // epoch behind — 50 ms barriers give it several epochs to bite.
    fleet.epochMs = 50.0;
    fleet.infra.contention = contention;
    fleet.infra.brownoutPeriodMs = 200.0;
    fleet.infra.brownoutDurationMs = 50.0;

    sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    std::vector<const dnn::Network *> networks;
    for (const dnn::Network &network : dnn::modelZoo()) {
        networks.push_back(&network);
    }
    fleet.serve.arrival.ratePerSec = 2.0 * 1000.0
        / serve::nominalServiceMs(sim, networks,
                                  fleet.serve.accuracyTargetPct);
    return fleet;
}

Measurement
runFleetBench(int devices, double contention, std::int64_t requests,
              std::uint64_t seed, int shards)
{
    const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const serve::FleetConfig fleet =
        fleetConfig(devices, contention, requests, seed, shards);

    Measurement m;
    m.devices = devices;
    m.contention = contention;
    const double start = now();
    const serve::FleetStats stats = serve::runFleet(sim, fleet, {});
    m.seconds = now() - start;
    m.arrivals = stats.aggregate.arrivals;
    m.served = stats.aggregate.served;
    m.qosViolations = stats.aggregate.qosViolations;
    m.energyJ = stats.aggregate.energyJ;
    m.checksum = stats.checksum;
    return m;
}

void
printMeasurement(const Measurement &m)
{
    std::cout << m.devices << " devices @" << Table::num(m.contention, 0)
              << "x: " << Table::num(m.deviceStepsPerSec(), 0)
              << " device-steps/s (" << m.arrivals << " arrivals in "
              << Table::num(m.seconds, 3) << " s, served " << m.served
              << ", qos-violations " << m.qosViolations << ", energy "
              << Table::num(m.energyJ, 2) << " J)\n";
}

std::string
measurementJson(const Measurement &m)
{
    return std::string("{\"devices\":") + std::to_string(m.devices)
        + ",\"contention\":" + obs::jsonNumber(m.contention)
        + ",\"arrivals\":" + std::to_string(m.arrivals)
        + ",\"served\":" + std::to_string(m.served)
        + ",\"qos_violations\":" + std::to_string(m.qosViolations)
        + ",\"energy_j\":" + obs::jsonNumber(m.energyJ)
        + ",\"seconds\":" + obs::jsonNumber(m.seconds)
        + ",\"device_steps_per_sec\":"
        + obs::jsonNumber(m.deviceStepsPerSec()) + ",\"checksum\":\""
        + std::to_string(m.checksum) + "\"}";
}

/** The million-device memory-footprint gate's result. */
struct MemoryGate {
    int devices = 0;
    std::int64_t arrivals = 0;
    std::int64_t served = 0;
    double seconds = 0.0;
    std::uint64_t peakRssBytes = 0;
    double bytesPerDevice = 0.0;
    double budgetBytes = 0.0;
    bool completed = false;

    bool
    withinBudget() const
    {
        return bytesPerDevice > 0.0 && bytesPerDevice <= budgetBytes;
    }
};

MemoryGate
runMemoryGate(int devices, double budgetBytes, std::uint64_t seed)
{
    const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    // One short contention epoch sweep per device: the gate measures
    // the fleet's resident footprint, not sustained throughput, so two
    // requests per device keep the run to a few wall seconds even at a
    // million devices. Aggregate stats are mandatory at this scale —
    // a million ServeStats would out-weigh the devices themselves.
    serve::FleetConfig fleet = fleetConfig(devices, 2.0, 2, seed, 4);
    // Provision the shared edge/Wi-Fi at the contention model's peak
    // concurrency (contention x devices x full-epoch busy). The queue
    // penalty is `excess x mean service time`, and with the whole
    // fleet bursting at t=0 any under-provisioned capacity leaves an
    // excess proportional to the population — virtual drain time then
    // grows linearly with the fleet and total work quadratically. A
    // million devices queueing on 4 edge slots is a queueing-collapse
    // study, not a memory gate; here the epoch barrier still folds a
    // million usage records per sweep and brownout windows still land,
    // which is the machinery this gate must exercise at scale.
    fleet.infra.edgeCapacity = 2.0 * static_cast<double>(devices);
    fleet.infra.wifiCapacity = 2.0 * static_cast<double>(devices);
    fleet.aggregateStats = true;
    fleet.reportMemory = true;

    MemoryGate gate;
    gate.devices = devices;
    gate.budgetBytes = budgetBytes;
    const double start = now();
    const serve::FleetStats stats = serve::runFleet(sim, fleet, {});
    gate.seconds = now() - start;
    gate.arrivals = stats.aggregate.arrivals;
    gate.served = stats.aggregate.served;
    gate.peakRssBytes = stats.peakRssBytes;
    gate.bytesPerDevice = stats.bytesPerDevice;
    gate.completed = gate.arrivals
        == static_cast<std::int64_t>(devices) * fleet.serve.totalRequests;
    return gate;
}

std::string
memoryGateJson(const MemoryGate &gate)
{
    return std::string("{\"devices\":") + std::to_string(gate.devices)
        + ",\"arrivals\":" + std::to_string(gate.arrivals)
        + ",\"served\":" + std::to_string(gate.served)
        + ",\"seconds\":" + obs::jsonNumber(gate.seconds)
        + ",\"peak_rss_bytes\":" + std::to_string(gate.peakRssBytes)
        + ",\"bytes_per_device\":" + obs::jsonNumber(gate.bytesPerDevice)
        + ",\"budget_bytes_per_device\":"
        + obs::jsonNumber(gate.budgetBytes) + ",\"within_budget\":"
        + (gate.withinBudget() ? "true" : "false") + ",\"completed\":"
        + (gate.completed ? "true" : "false") + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("--seed", 1));
    const std::int64_t requests = args.getInt("--requests", 100);
    const int checkDevices = args.getInt("--check-devices", 1000);
    const int memoryDevices = args.getInt("--memory-devices", 1000000);
    const double memoryBudget =
        static_cast<double>(args.getInt("--memory-budget", 4096));
    const std::string out = args.get("--out", "BENCH_fleet.json");
    const bool check = args.has("--check");
    const std::string scenarioPath = args.get("--scenario");

    // --scenario FILE: benchmark a declared fleet (population, arrival
    // schedule, shared infrastructure, churn — scenarios/*.scn) instead
    // of the synthetic sweep. The cross-shard checksum gate applies
    // unchanged: declarative churn and outages must be exactly as
    // shard-invariant as the synthetic workload.
    if (!scenarioPath.empty()) {
        const scenario::ScenarioSpec spec =
            bench::loadBenchScenario(scenarioPath);
        if (spec.population <= 1) {
            fatal("scenario '" + scenarioPath
                  + "' has device.population <= 1; bench_fleet "
                    "benchmarks fleets");
        }
        const sim::InferenceSimulator sim =
            sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
        const serve::FleetConfig fleet =
            bench::fleetConfigFromScenario(spec, sim);

        bench::printHeader(
            "Fleet serving: scenario '" + spec.name + "' ("
                + std::to_string(fleet.devices) + " devices)",
            "Gate: fleet completes; checksum bit-equal across shard "
            "counts");

        auto runShards = [&](int shards) {
            serve::FleetConfig config = fleet;
            config.shards = shards;
            Measurement m;
            m.devices = config.devices;
            m.contention = config.infra.contention;
            const double start = now();
            const serve::FleetStats stats =
                serve::runFleet(sim, config, {});
            m.seconds = now() - start;
            m.arrivals = stats.aggregate.arrivals;
            m.served = stats.aggregate.served;
            m.qosViolations = stats.aggregate.qosViolations;
            m.energyJ = stats.aggregate.energyJ;
            m.checksum = stats.checksum;
            return m;
        };
        const Measurement gateA = runShards(1);
        printMeasurement(gateA);
        const Measurement gateB = runShards(4);
        const bool checksumsAgree = gateA.checksum == gateB.checksum;
        const bool completed = gateA.arrivals
                == static_cast<std::int64_t>(fleet.devices)
                    * fleet.serve.totalRequests
            && gateA.deviceStepsPerSec() > 0.0;
        std::cout << "cross-shard checksums "
                  << (checksumsAgree ? "agree" : "DISAGREE") << "\n";

        std::ofstream json(out);
        json << "{\"scenario\":\"" << spec.name
             << "\",\"gate\":{\"shards_1\":" << measurementJson(gateA)
             << ",\"shards_4\":" << measurementJson(gateB)
             << ",\"completed\":" << (completed ? "true" : "false")
             << ",\"checksums_agree\":"
             << (checksumsAgree ? "true" : "false") << "}}\n";
        std::cout << "Wrote " << out << "\n";

        if (check && (!completed || !checksumsAgree)) {
            std::cerr << "FAIL: scenario fleet gate "
                      << (completed ? "checksum mismatch"
                                    : "did not complete")
                      << "\n";
            return 1;
        }
        if (check) {
            std::cout << "PASS: gates met\n";
        }
        return 0;
    }

    bench::printHeader(
        "Fleet serving: device-steps/sec vs fleet size and contention",
        "Gates: memory budget at " + std::to_string(memoryDevices)
            + " devices; 1000-device 2x-contention fleet completes; "
              "checksum bit-equal across shard counts");

    // Memory gate first: runFleet charges the RSS it samples above
    // its entry RSS, so heap that earlier cells freed but the process
    // kept resident would absorb the gate's allocations and hide them.
    const MemoryGate memGate = runMemoryGate(memoryDevices, memoryBudget,
                                             seed);
    std::cout << "memory gate: " << memGate.devices << " devices, peak "
              << Table::num(static_cast<double>(memGate.peakRssBytes)
                                / (1024.0 * 1024.0),
                            0)
              << " MiB, " << Table::num(memGate.bytesPerDevice, 0)
              << " bytes/device (budget "
              << Table::num(memGate.budgetBytes, 0) << ") in "
              << Table::num(memGate.seconds, 2) << " s — "
              << (memGate.withinBudget() && memGate.completed ? "ok"
                                                              : "FAIL")
              << "\n\n";

    // Scaling sweep: fleet size x contention.
    std::vector<Measurement> sweep;
    for (const int devices : {64, 256}) {
        for (const double contention : {1.0, 4.0}) {
            sweep.push_back(runFleetBench(devices, contention, requests,
                                          seed, 4));
            printMeasurement(sweep.back());
        }
    }

    // The gate scenario: a big fleet under 2x contention, run with two
    // shard counts; the checksums must match bit for bit.
    std::cout << "\ngate: " << checkDevices
              << "-device fleet @2x contention\n";
    const Measurement gateA =
        runFleetBench(checkDevices, 2.0, requests, seed, 1);
    printMeasurement(gateA);
    const Measurement gateB =
        runFleetBench(checkDevices, 2.0, requests, seed, 4);
    const bool checksumsAgree = gateA.checksum == gateB.checksum;
    const bool completed =
        gateA.arrivals
            == static_cast<std::int64_t>(checkDevices) * requests
        && gateA.deviceStepsPerSec() > 0.0;
    std::cout << "cross-shard checksums "
              << (checksumsAgree ? "agree" : "DISAGREE") << "\n";

    std::ofstream json(out);
    json << "{\"seed\":" << seed << ",\"requests_per_device\":" << requests
         << ",\"sweep\":[";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        json << (i > 0 ? "," : "") << measurementJson(sweep[i]);
    }
    json << "],\"gate\":{\"shards_1\":" << measurementJson(gateA)
         << ",\"shards_4\":" << measurementJson(gateB)
         << ",\"completed\":" << (completed ? "true" : "false")
         << ",\"checksums_agree\":" << (checksumsAgree ? "true" : "false")
         << "},\"memory_gate\":" << memoryGateJson(memGate) << "}\n";
    std::cout << "Wrote " << out << "\n";

    if (check) {
        if (!completed) {
            std::cerr << "FAIL: gate fleet did not complete all arrivals\n";
            return 1;
        }
        if (!checksumsAgree) {
            std::cerr << "FAIL: fleet checksum differs across shard "
                         "counts (determinism violation)\n";
            return 1;
        }
        if (!memGate.completed) {
            std::cerr << "FAIL: memory-gate fleet did not complete all "
                         "arrivals\n";
            return 1;
        }
        if (!memGate.withinBudget()) {
            std::cerr << "FAIL: memory gate "
                      << Table::num(memGate.bytesPerDevice, 0)
                      << " bytes/device exceeds budget "
                      << Table::num(memGate.budgetBytes, 0) << "\n";
            return 1;
        }
        std::cout << "PASS: gates met\n";
    }
    return 0;
}
