/**
 * @file
 * Serve-loop throughput benchmark (DESIGN.md §14): requests/sec of the
 * online serving loop with metering live, in two modes —
 *
 *  (a) cached — the precomputed cost tables (the serving default); and
 *  (b) direct — the cost tables bypassed (the first-principles layer
 *      walk under them).
 *
 * Both modes run the identical seeded workload, so the run's aggregate
 * statistics and the post-run RNG fingerprint must be bit-equal across
 * modes — an end-to-end parity assertion on top of the req/s numbers.
 * Results land in BENCH_serve_throughput.json; `--check` turns a
 * cross-mode checksum or fingerprint mismatch into a nonzero exit.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"
#include "dnn/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "serve/server.h"
#include "util/logging.h"

using namespace autoscale;

namespace {

/** One serving run's measurement in one mode. */
struct Measurement {
    std::int64_t requests = 0;
    double seconds = 0.0;
    double checksum = 0.0;
    std::uint64_t rngFingerprint = 0;

    double
    requestsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(requests) / seconds
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

serve::ServeConfig
benchConfig(std::int64_t requests, std::uint64_t seed)
{
    serve::ServeConfig config;
    config.scenario = env::ScenarioId::D3;
    config.faults = fault::FaultPlan::fromName("flaky-wifi");
    config.faults.seed = seed + 17;
    config.totalRequests = requests;
    config.seed = seed;
    // Throughput of the serving loop itself: skip pre-training (it is
    // the same work in every mode and would dominate the timing).
    config.trainRunsPerCombo = 0;
    return config;
}

/**
 * One timed serving run. Metering is live (the production
 * configuration this path is optimized for); tracing is off.
 */
Measurement
runMode(bool useCostCache, std::int64_t requests,
        std::uint64_t seed, const scenario::ScenarioSpec *spec)
{
    sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    sim.setUseCostCache(useCostCache);
    serve::ServeConfig config;
    if (spec != nullptr) {
        // --scenario FILE: the file supplies the workload shape (env
        // base, faults, arrival schedule, QoS depths); --requests and
        // --seed stay authoritative for measurement length and
        // seeding, and pre-training is skipped as in synthetic mode.
        bench::applyScenarioToServe(*spec, sim, &config);
        config.totalRequests = requests;
        config.seed = seed;
        config.trainRunsPerCombo = 0;
    } else {
        config = benchConfig(requests, seed);
        // Nominal capacity depends on the device only, so every mode
        // sees the same arrival process.
        const double rateX = 2.0;
        std::vector<const dnn::Network *> networks;
        for (const dnn::Network &network : dnn::modelZoo()) {
            networks.push_back(&network);
        }
        config.arrival.ratePerSec = rateX * 1000.0
            / serve::nominalServiceMs(sim, networks,
                                      config.accuracyTargetPct);
    }

    obs::MetricsRegistry metrics;
    obs::ObsContext obs;
    obs.metrics = &metrics;

    Measurement m;
    const double start = now();
    const serve::ServeStats stats = serve::runServe(sim, config, obs);
    m.seconds = now() - start;
    m.requests = stats.arrivals;
    m.checksum = stats.energyJ + stats.wastedEnergyJ + stats.totalWaitMs
        + stats.totalServiceMs + static_cast<double>(stats.served)
        + static_cast<double>(stats.shedDeadline)
        + static_cast<double>(stats.shedOverflow)
        + static_cast<double>(stats.shedStale);
    m.rngFingerprint = stats.rngFingerprint;
    return m;
}

void
printMeasurement(const char *mode, const Measurement &m)
{
    std::cout << mode << ": " << Table::num(m.requestsPerSec(), 0)
              << " req/s (" << m.requests << " arrivals in "
              << Table::num(m.seconds, 3) << " s, checksum "
              << Table::num(m.checksum, 3) << ")\n";
}

std::string
measurementJson(const Measurement &m)
{
    return std::string("{\"requests\":") + std::to_string(m.requests)
        + ",\"seconds\":" + obs::jsonNumber(m.seconds)
        + ",\"requests_per_sec\":" + obs::jsonNumber(m.requestsPerSec())
        + ",\"checksum\":" + obs::jsonNumber(m.checksum)
        + ",\"rng_fingerprint\":\"" + std::to_string(m.rngFingerprint)
        + "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("--seed", 1));
    const std::int64_t requests = args.getInt("--requests", 200000);
    const std::string out =
        args.get("--out", "BENCH_serve_throughput.json");
    const bool check = args.has("--check");

    const std::string scenarioPath = args.get("--scenario");
    scenario::ScenarioSpec scenarioSpec;
    const scenario::ScenarioSpec *spec = nullptr;
    if (!scenarioPath.empty()) {
        scenarioSpec = bench::loadBenchScenario(scenarioPath);
        if (scenarioSpec.population > 1) {
            fatal("scenario '" + scenarioPath
                  + "' declares a fleet (device.population > 1); use "
                    "bench_fleet for fleet scenarios");
        }
        spec = &scenarioSpec;
    }

    bench::printHeader(
        spec != nullptr
            ? "Serve-loop throughput: scenario '" + spec->name
                  + "', cost cache vs direct"
            : "Serve-loop throughput: cost cache vs direct",
        "Gate: both modes bit-equal");

    // Warm-up run per mode (pages in code and cost tables), then the
    // measured run.
    runMode(true, requests / 10, seed, spec);
    const Measurement cached = runMode(true, requests, seed, spec);
    printMeasurement("cached", cached);

    runMode(false, requests / 10, seed, spec);
    const Measurement direct = runMode(false, requests, seed, spec);
    printMeasurement("direct", direct);

    const double speedupVsDirect =
        cached.requestsPerSec() / direct.requestsPerSec();
    const bool checksumsAgree = cached.checksum == direct.checksum
        && cached.rngFingerprint == direct.rngFingerprint;
    std::cout << "\nspeedup: vs direct " << Table::num(speedupVsDirect, 2)
              << "x; checksums "
              << (checksumsAgree ? "agree" : "DISAGREE") << "\n";

    std::ofstream json(out);
    json << "{\"seed\":" << seed << ",\"requests\":" << requests
         << ",\"cached\":" << measurementJson(cached)
         << ",\"direct\":" << measurementJson(direct)
         << ",\"speedup\":{\"vs_direct\":"
         << obs::jsonNumber(speedupVsDirect) << "}"
         << ",\"checksums_agree\":"
         << (checksumsAgree ? "true" : "false") << "}\n";
    std::cout << "Wrote " << out << "\n";

    if (check) {
        if (!checksumsAgree) {
            std::cerr << "FAIL: cross-mode checksums disagree (parity "
                         "violation)\n";
            return 1;
        }
        std::cout << "PASS: gates met\n";
    }
    return 0;
}
