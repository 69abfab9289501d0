/**
 * perfbench_child: one benchmark child process. run.py starts a fresh
 * process per measurement, so peak RSS is per run and a hung run can be
 * killed without losing the others.
 *
 *   perfbench_child MODE --scenario FILE --policy NAME --jobs N
 *                    --shards N --metering 0|1 --seed N
 *
 * MODE is one of
 *   run    the untraced workload through the library's public entry
 *          point (serve::runServe or serve::runFleet), timed as one call;
 *   setup  only the construction runServe/runFleet performs before the
 *          first request is served: simulator and cost tables, workload
 *          resolution, device-0 pre-training, fleet construction;
 *   trace  the same program replayed through the public step API with a
 *          span around each layer call, followed by isolated-call timings
 *          of the per-request layers over the workload's own inputs.
 *
 * Each mode prints one JSON object on stdout. Progress lines
 * ("perfbench-progress ...") go to stderr, so a killed run can still
 * report how far it got.
 */

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/policy.h"
#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "harness/parallel.h"
#include "obs/metrics_registry.h"
#include "platform/device_zoo.h"
#include "scenario/load.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/device_loop.h"
#include "serve/device_state.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "serve/shared_infra.h"
#include "sim/batch_engine.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/stats.h"

namespace {

using namespace autoscale;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Keeps isolated-call results observable so no call is elided. */
volatile double g_sink = 0.0;

struct Options {
    std::string mode;
    std::string scenarioPath;
    std::string policy = "autoscale";
    int jobs = 0;
    int shards = 4;
    bool metering = false;
    std::uint64_t seed = 1;
};

Options
parseOptions(int argc, char **argv)
{
    if (argc < 2) {
        fatal("usage: perfbench_child run|setup|trace --scenario FILE "
              "--policy NAME --jobs N --shards N --metering 0|1 --seed N");
    }
    Options options;
    options.mode = argv[1];
    if (options.mode != "run" && options.mode != "setup"
        && options.mode != "trace") {
        fatal("unknown mode '" + options.mode + "'");
    }
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--scenario") {
            options.scenarioPath = value;
        } else if (flag == "--policy") {
            options.policy = value;
        } else if (flag == "--jobs") {
            options.jobs = std::stoi(value);
        } else if (flag == "--shards") {
            options.shards = std::stoi(value);
        } else if (flag == "--metering") {
            options.metering = value == "1";
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
        } else {
            fatal("unknown flag '" + flag + "'");
        }
    }
    if (options.scenarioPath.empty() || options.shards < 1) {
        fatal("--scenario FILE and --shards >= 1 are required");
    }
    return options;
}

/** The fold runFleet uses for FleetStats::checksum. */
std::uint64_t
mixChecksum(std::uint64_t hash, std::uint64_t value)
{
    return hash
        ^ (value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2));
}

scenario::ScenarioSpec
loadSpec(const Options &options)
{
    scenario::Diagnostics diags;
    std::vector<scenario::LoadedScenario> loaded =
        scenario::loadScenarioFile(options.scenarioPath, diags);
    if (!diags.ok()) {
        std::cerr << diags.render();
        fatal("invalid workload file '" + options.scenarioPath + "'");
    }
    if (loaded.size() != 1 || loaded[0].spec.envBases.size() != 1) {
        fatal("a workload file must define one run with one env.base");
    }
    if (loaded[0].spec.churn.enabled()) {
        fatal("the traced replay does not model churn");
    }
    return loaded[0].spec;
}

/**
 * The run `autoscale_cli serve --scenario FILE` would make, except that
 * the benchmark seed replaces meta.seed and also derives the fault
 * stream's seed, so every input follows from --seed.
 */
serve::FleetConfig
resolveConfig(const Options &options, const scenario::ScenarioSpec &spec,
              const sim::InferenceSimulator &sim)
{
    serve::FleetConfig fleet;
    serve::ServeConfig &config = fleet.serve;
    config.scenario = spec.envBases.front();
    config.faults = spec.faults;
    config.faults.seed = harness::replicateSeed(options.seed, 0xfa17);
    config.retry = spec.retry;
    config.totalRequests = spec.requests;
    config.policyName = options.policy;
    config.networkFilter = spec.network;
    config.accuracyTargetPct = spec.accuracyTargetPct;
    config.seed = options.seed;
    config.trainRunsPerCombo = spec.trainRuns >= 0 ? spec.trainRuns : 40;
    config.admission.maxDepth = spec.queueDepth;
    config.admission.degradeDepth = spec.degradeDepth;

    std::vector<const dnn::Network *> networks;
    for (const dnn::Network &network : dnn::modelZoo()) {
        if (config.networkFilter.empty()
            || network.name() == config.networkFilter) {
            networks.push_back(&network);
        }
    }
    if (networks.empty()) {
        fatal("unknown network '" + config.networkFilter + "'");
    }
    config.arrival.ratePerSec = spec.arrival.rateRps > 0.0
        ? spec.arrival.rateRps
        : spec.arrival.rateX * 1000.0
            / serve::nominalServiceMs(sim, networks,
                                      config.accuracyTargetPct);
    config.arrival.burstPeriodMs = spec.arrival.burstPeriodMs;
    config.arrival.burstDurationMs = spec.arrival.burstMs;
    config.arrival.burstMultiplier = spec.arrival.burstMult;
    config.arrival.diurnalPeriodMs = spec.arrival.diurnalPeriodMs;
    config.arrival.diurnalAmplitude = spec.arrival.diurnalAmplitude;

    fleet.devices = spec.population;
    fleet.shards = options.shards;
    fleet.jobs = options.jobs;
    fleet.qMode = serve::qTableModeFromName(spec.fleet.qMode);
    fleet.federatedMergeEpochs = spec.fleet.mergeEpochs;
    fleet.epochMs = spec.fleet.epochMs;
    fleet.infra = spec.infra;
    if (fleet.devices > 1 && options.metering) {
        fatal("the traced replay meters single-device workloads only");
    }
    return fleet;
}

/** Simulator, observability and resolved config of one child process. */
struct Setup {
    explicit Setup(const Options &options)
        : spec(loadSpec(options)),
          sim(sim::InferenceSimulator::makeDefault(
              platform::makePhone(spec.deviceModel)))
    {
        if (options.metering) {
            sim.setObserver(&registry);
            obs.metrics = &registry;
        }
        fleet = resolveConfig(options, spec, sim);
    }

    bool isFleet() const { return fleet.devices > 1; }

    int
    jobs() const
    {
        return fleet.jobs > 0 ? fleet.jobs : harness::defaultJobs();
    }

    const Clock::time_point start = Clock::now();
    /** Declared before the simulator, which may point at it. */
    obs::MetricsRegistry registry;
    scenario::ScenarioSpec spec;
    sim::InferenceSimulator sim;
    obs::ObsContext obs;
    serve::FleetConfig fleet;
};

/** Totals over every device's ServeStats, plus the run's fingerprints. */
struct Totals {
    std::int64_t devices = 0;
    std::int64_t arrivals = 0;
    std::int64_t admitted = 0;
    std::int64_t served = 0;
    std::int64_t shedDeadline = 0;
    std::int64_t shedOverflow = 0;
    std::int64_t shedStale = 0;
    std::int64_t shedChurn = 0;
    std::int64_t degraded = 0;
    std::int64_t qosViolations = 0;
    std::int64_t faultFallbacks = 0;
    std::int64_t shortCircuits = 0;
    double energyJ = 0.0;
    double wastedEnergyJ = 0.0;
    bool finite = true;
    std::uint64_t checksum = 0;
    /** The last device's (a single-device run's only) fingerprint. */
    std::uint64_t rngFingerprint = 0;

    void
    add(const serve::ServeStats &device)
    {
        ++devices;
        arrivals += device.arrivals;
        admitted += device.admitted;
        served += device.served;
        shedDeadline += device.shedDeadline;
        shedOverflow += device.shedOverflow;
        shedStale += device.shedStale;
        shedChurn += device.shedChurn;
        degraded += device.degraded;
        qosViolations += device.qosViolations;
        faultFallbacks += device.faultFallbacks;
        shortCircuits += device.breakerShortCircuits;
        energyJ += device.energyJ;
        wastedEnergyJ += device.wastedEnergyJ;
        finite = finite && std::isfinite(device.energyJ)
            && std::isfinite(device.wastedEnergyJ)
            && std::isfinite(device.endClockMs);
        for (const double latency : device.latenciesMs) {
            finite = finite && std::isfinite(latency);
        }
        checksum = mixChecksum(checksum, device.rngFingerprint);
        checksum = mixChecksum(checksum,
                               static_cast<std::uint64_t>(device.served));
        checksum = mixChecksum(checksum,
                               static_cast<std::uint64_t>(device.shedChurn));
        checksum = mixChecksum(checksum,
                               std::bit_cast<std::uint64_t>(device.energyJ));
        checksum = mixChecksum(
            checksum, std::bit_cast<std::uint64_t>(device.endClockMs));
        rngFingerprint = device.rngFingerprint;
    }
};

/** One flat JSON object: keys in insertion order, doubles at full precision. */
class JsonOut {
  public:
    void
    num(const std::string &key, double value)
    {
        std::ostringstream text;
        text << std::setprecision(17) << value;
        field(key, std::isfinite(value) ? text.str() : "null");
    }

    void
    integer(const std::string &key, std::int64_t value)
    {
        field(key, std::to_string(value));
    }

    /** 64-bit hashes travel as strings: JSON numbers are doubles. */
    void
    hash(const std::string &key, std::uint64_t value)
    {
        std::string text = "\"";
        text += std::to_string(value);
        text += '"';
        field(key, text);
    }

    void
    boolean(const std::string &key, bool value)
    {
        field(key, value ? "true" : "false");
    }

    void
    totals(const Totals &totals, std::int64_t requestsPerDevice)
    {
        integer("devices", totals.devices);
        integer("requests", requestsPerDevice);
        integer("arrivals", totals.arrivals);
        integer("admitted", totals.admitted);
        integer("served", totals.served);
        integer("shed_deadline", totals.shedDeadline);
        integer("shed_overflow", totals.shedOverflow);
        integer("shed_stale", totals.shedStale);
        integer("shed_churn", totals.shedChurn);
        integer("degraded", totals.degraded);
        integer("qos_violations", totals.qosViolations);
        integer("fault_fallbacks", totals.faultFallbacks);
        integer("short_circuits", totals.shortCircuits);
        num("energy_j", totals.energyJ);
        num("wasted_energy_j", totals.wastedEnergyJ);
        boolean("finite", totals.finite);
        hash("checksum", totals.checksum);
        hash("rng_fingerprint", totals.rngFingerprint);
    }

    void
    print() const
    {
        std::cout << "{" << body_.str() << "}" << std::endl;
    }

  private:
    void
    field(const std::string &key, const std::string &value)
    {
        body_ << (first_ ? "" : ",") << "\"" << key << "\":" << value;
        first_ = false;
    }

    std::ostringstream body_;
    bool first_ = true;
};

/**
 * Reports on stderr roughly how many epochs an untraced runFleet call
 * has started. The call is opaque, but it builds one thread pool per
 * epoch, so each generation of min(jobs, shards) new worker threads is
 * one epoch. This is what a run killed by the watchdog can say.
 */
class EpochWatcher {
  public:
    explicit EpochWatcher(std::size_t workersPerEpoch)
        : workers_(std::max<std::size_t>(1, workersPerEpoch)),
          mainTid_(std::to_string(gettid())), thread_([this] { watch(); })
    {
    }

    ~EpochWatcher()
    {
        stop_.store(true);
        thread_.join();
    }

    EpochWatcher(const EpochWatcher &) = delete;
    EpochWatcher &operator=(const EpochWatcher &) = delete;

  private:
    void
    watch()
    {
        const std::string self = std::to_string(gettid());
        std::set<std::string> seen;
        std::size_t reported = 0;
        while (!stop_.load()) {
            if (DIR *dir = opendir("/proc/self/task")) {
                while (const dirent *entry = readdir(dir)) {
                    const std::string tid = entry->d_name;
                    if (tid[0] != '.' && tid != self && tid != mainTid_) {
                        seen.insert(tid);
                    }
                }
                closedir(dir);
            }
            const std::size_t started =
                (seen.size() + workers_ - 1) / workers_;
            if (started != reported) {
                reported = started;
                std::cerr << "perfbench-progress epoch>=" << started - 1
                          << std::endl;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }

    const std::size_t workers_;
    const std::string mainTid_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

int
modeRun(const Options &options)
{
    Setup setup(options);
    Totals totals;
    std::int64_t epochs = 1;
    std::cerr << "perfbench-progress serving" << std::endl;
    double callS = 0.0;
    if (setup.isFleet()) {
        std::optional<EpochWatcher> watcher;
        if (setup.jobs() > 1 && setup.fleet.shards > 1) {
            watcher.emplace(static_cast<std::size_t>(
                std::min(setup.jobs(), setup.fleet.shards)));
        }
        const Clock::time_point call = Clock::now();
        const serve::FleetStats stats =
            serve::runFleet(setup.sim, setup.fleet, setup.obs);
        callS = secondsSince(call);
        watcher.reset();
        epochs = stats.epochs;
        for (const serve::ServeStats &device : stats.devices) {
            totals.add(device);
        }
        if (totals.checksum != stats.checksum) {
            fatal("the benchmark's checksum fold disagrees with runFleet");
        }
    } else {
        const Clock::time_point call = Clock::now();
        const serve::ServeStats stats =
            serve::runServe(setup.sim, setup.fleet.serve, setup.obs);
        callS = secondsSince(call);
        totals.add(stats);
    }
    const std::uint64_t peakRss = util::peakRssBytes();

    JsonOut out;
    out.num("call_s", callS);
    out.integer("peak_rss_bytes", static_cast<std::int64_t>(peakRss));
    out.integer("epochs", epochs);
    out.totals(totals, setup.fleet.serve.totalRequests);
    out.print();
    return 0;
}

/** Wall time per replay phase, s, and the counts that go with them. */
struct Spans {
    double device0 = 0.0;
    double peers = 0.0;
    /**
     * Sum over epochs of the advance critical path: the slowest shard,
     * or the shards' total over the workers if that is longer.
     */
    double advance = 0.0;
    /** Sum over epochs and shards of advance time. */
    double advanceBusy = 0.0;
    /** Sum over epochs of region wall minus the critical path. */
    double dispatch = 0.0;
    double fold = 0.0;
    double snapshot = 0.0;
    double merge = 0.0;
    double finish = 0.0;
    double slowestShardSum = 0.0;
    double meanShardSum = 0.0;
    std::int64_t epochs = 0;
    std::int64_t poolRegions = 0;
    std::int64_t mergeCalls = 0;
    std::vector<double> epochWallMs;

    double
    phaseSum() const
    {
        return device0 + peers + advance + dispatch + fold + snapshot
            + merge + finish;
    }
};

/**
 * runServe / runFleet replayed through the public step API, with a span
 * around every call. A fleet mirrors runFleet's compact construction and
 * epoch loop statement for statement (no churn, no checkpointing,
 * observability off), so it ends with the same FleetStats::checksum. A
 * single device is runServe's body, run as one inline epoch that ends at
 * +inf with no contention snapshot. A phase a workload does not have is
 * still timed, as an empty span.
 */
class Replay {
  public:
    explicit Replay(const Setup &setup) : setup_(setup)
    {
        const serve::FleetConfig &config = setup.fleet;
        const std::size_t n = static_cast<std::size_t>(config.devices);
        shards_ = std::min(n, static_cast<std::size_t>(config.shards));
        perShard_ = (n + shards_ - 1) / shards_;
        devices_.reserve(n);

        Clock::time_point start = Clock::now();
        if (setup.isFleet()) {
            devices_.emplace_back(setup.sim, config.serve,
                                  obs::ObsContext{}, 0);
        } else {
            devices_.emplace_back(setup.sim, config.serve, setup.obs);
        }
        spans.device0 = secondsSince(start);

        start = Clock::now();
        if (setup.isFleet()) {
            buildPeers();
        }
        spans.peers = secondsSince(start);
    }

    /** Serve every request through runFleet's epoch loop. */
    void
    serve()
    {
        const serve::FleetConfig &config = setup_.fleet;
        const bool fleet = setup_.isFleet();
        const double epochMs = fleet
            ? config.epochMs
            : std::numeric_limits<double>::infinity();
        const std::size_t n = devices_.size();
        const int jobs = setup_.jobs();
        // parallelIndexed runs inline unless jobs and shards both exceed 1.
        const std::size_t workers = jobs > 1 && shards_ > 1
            ? std::min(static_cast<std::size_t>(jobs), shards_)
            : 1;
        const serve::SharedInfra infra(config.infra);
        std::vector<serve::EpochUsage> usage(n);
        std::vector<double> busy(shards_);

        Clock::time_point start = Clock::now();
        serve::SharedSnapshot snapshot;
        if (fleet) {
            snapshot = infra.snapshotFor(0.0, epochMs, {});
        }
        spans.snapshot += secondsSince(start);
        const serve::SharedSnapshot *shared = fleet ? &snapshot : nullptr;
        double epochStartMs = 0.0;
        for (std::int64_t epoch = 0;; ++epoch) {
            const Clock::time_point epochStart = Clock::now();
            const double barrierMs = epochStartMs + epochMs;
            harness::parallelIndexed(
                shards_, jobs, [&](std::size_t shard) {
                    const Clock::time_point shardStart = Clock::now();
                    const std::size_t begin = shard * perShard_;
                    const std::size_t end = std::min(n, begin + perShard_);
                    for (std::size_t d = begin; d < end; ++d) {
                        devices_[d].advance(barrierMs, shared, epoch);
                    }
                    busy[shard] = secondsSince(shardStart);
                    return 0;
                });
            const double region = secondsSince(epochStart);
            const double slowest = *std::max_element(busy.begin(),
                                                     busy.end());
            double total = 0.0;
            for (const double b : busy) {
                total += b;
            }
            // The least wall time the shards' work could take on the
            // region's workers; the rest of the region is dispatch.
            const double critical =
                std::max(slowest, total / static_cast<double>(workers));
            spans.advance += critical;
            spans.advanceBusy += total;
            spans.dispatch += region - critical;
            spans.slowestShardSum += slowest;
            spans.meanShardSum += total / static_cast<double>(shards_);
            if (workers > 1) {
                ++spans.poolRegions;
            }
            ++spans.epochs;

            start = Clock::now();
            bool allDone = true;
            for (std::size_t d = 0; d < n; ++d) {
                usage[d] = devices_[d].takeEpochUsage();
                allDone = devices_[d].done() && allDone;
            }
            spans.fold += secondsSince(start);
            AS_CHECK(fleet || allDone);

            start = Clock::now();
            if (schedulers_.size() > 1
                && (config.qMode == serve::QTableMode::Shared
                    || (config.qMode == serve::QTableMode::Federated
                        && (epoch + 1) % config.federatedMergeEpochs
                            == 0))) {
                serve::mergeQTablesVisitWeighted(schedulers_);
                ++spans.mergeCalls;
            }
            spans.merge += secondsSince(start);

            if (!allDone) {
                start = Clock::now();
                snapshot = infra.snapshotFor(barrierMs, epochMs, usage);
                spans.snapshot += secondsSince(start);
            }
            spans.epochWallMs.push_back(secondsSince(epochStart) * 1e3);
            std::cerr << "perfbench-progress epoch=" << epoch << std::endl;
            if (allDone) {
                break;
            }
            epochStartMs = barrierMs;
        }
    }

    /** Finalize every device in index order, as runFleet does. */
    Totals
    finish()
    {
        const Clock::time_point start = Clock::now();
        Totals totals;
        for (serve::DeviceLoop &device : devices_) {
            totals.add(device.finish());
        }
        spans.finish = secondsSince(start);
        return totals;
    }

    const core::AutoScaleScheduler *
    deviceZeroScheduler() const
    {
        return devices_[0].scheduler();
    }

    /**
     * Share of Q-table cells some device has visited: the cells the
     * visit-weighted merge actually changes, out of every cell it scans.
     */
    double
    mergeCellsVisitedFrac() const
    {
        if (schedulers_.size() < 2) {
            return 0.0;
        }
        const core::QTable &table = schedulers_[0]->agent().table();
        std::int64_t visited = 0;
        for (int s = 0; s < table.numStates(); ++s) {
            for (int a = 0; a < table.numActions(); ++a) {
                for (const core::AutoScaleScheduler *scheduler :
                     schedulers_) {
                    if (scheduler->agent().visitCount(s, a) > 0) {
                        ++visited;
                        break;
                    }
                }
            }
        }
        return static_cast<double>(visited)
            / (static_cast<double>(table.numStates())
               * static_cast<double>(table.numActions()));
    }

    Spans spans;

  private:
    /** runFleet's compact construction of devices 1..n-1. */
    void
    buildPeers()
    {
        const serve::FleetConfig &config = setup_.fleet;
        const std::size_t n = static_cast<std::size_t>(config.devices);
        const core::AutoScaleScheduler *warm = devices_[0].scheduler();
        serve::ServeConfig peerTemplate = config.serve;
        peerTemplate.checkpointPath.clear();
        peerTemplate.resume = false;
        peerTemplate.qtablePath.clear();
        plan_.emplace(serve::makeDevicePlan(setup_.sim, peerTemplate));
        records_.reserve(n - 1);
        if (peerTemplate.batchSize >= 1) {
            for (std::size_t s = 0; s < shards_; ++s) {
                engines_.push_back(
                    std::make_unique<sim::BatchDecisionEngine>(
                        setup_.sim,
                        static_cast<std::size_t>(peerTemplate.batchSize)));
            }
        }
        for (std::size_t i = 1; i < n; ++i) {
            const std::size_t shard = i / perShard_;
            records_.emplace_back(
                *plan_, obs::ObsContext{}, static_cast<int>(i),
                harness::replicateSeed(config.serve.seed, i), warm,
                engines_.empty() ? nullptr : engines_[shard].get());
            devices_.emplace_back(&records_.back());
        }
        const std::string &policy = config.serve.policyName;
        if (policy.empty() || policy == "autoscale") {
            for (serve::DeviceLoop &device : devices_) {
                schedulers_.push_back(device.scheduler());
            }
        }
    }

    const Setup &setup_;
    std::size_t shards_ = 1;
    std::size_t perShard_ = 1;
    std::optional<serve::DevicePlan> plan_;
    std::vector<serve::DeviceState> records_;
    std::vector<std::unique_ptr<sim::BatchDecisionEngine>> engines_;
    std::vector<serve::DeviceLoop> devices_;
    std::vector<core::AutoScaleScheduler *> schedulers_;
};

int
modeSetup(const Options &options)
{
    const Setup setup(options);
    const Replay replay(setup);
    JsonOut out;
    out.num("setup_s", secondsSince(setup.start));
    out.print();
    return 0;
}

/** ns per call of each per-request layer, timed outside the program. */
struct CallTimings {
    double decideNs = 0.0;
    double updateNs = 0.0;
    double runNs = 0.0;
    double bestLocalNs = 0.0;
    double envNs = 0.0;
    double arrivalNs = 0.0;
    double offerNs = 0.0;
    /** One served-request record. */
    double recordNs = 0.0;
};

double
nsPerCall(Clock::time_point start, std::size_t calls)
{
    return secondsSince(start) * 1e9 / static_cast<double>(calls);
}

/**
 * Times the public functions DeviceLoop::advance calls per request, over
 * the workload's own inputs: a device built from the workload's config
 * and warm-started from the replay's device 0 (so a learner uses the
 * trained, merged table), its env base, fault plan, network mix,
 * ArrivalConfig and AdmissionConfig. decide and feedback must alternate,
 * so each of those calls is timed on its own and includes one clock
 * read; the rest are timed in bulk.
 */
CallTimings
timeCalls(const Setup &setup, const core::AutoScaleScheduler *warm)
{
    constexpr std::size_t kDecisions = 40000;
    constexpr std::size_t kCheap = 400000;
    const serve::ServeConfig &config = setup.fleet.serve;
    const sim::InferenceSimulator &sim = setup.sim;
    serve::DeviceState probe(sim, config, obs::ObsContext{}, -1, warm);
    const std::vector<serve::Workload> &mix = probe.workloads();
    CallTimings timings;

    struct Sample {
        env::EnvState env;
        std::size_t workload;
        baselines::Decision decision;
    };
    std::vector<Sample> samples;
    samples.reserve(kDecisions);
    double decideS = 0.0;
    double updateS = 0.0;
    for (std::size_t k = 0; k < kDecisions; ++k) {
        const env::EnvState env = probe.scenario->next(probe.envRng);
        const std::size_t index = probe.workloadRng.uniformInt(mix.size());
        const sim::InferenceRequest &request = mix[index].request;
        Clock::time_point start = Clock::now();
        const baselines::Decision decision =
            probe.policy->decide(request, env, probe.decisionRng);
        decideS += secondsSince(start);
        const sim::FaultOutcome result = baselines::executeDecisionWithFaults(
            sim, request, decision, env, config.retry, probe.execRng);
        start = Clock::now();
        probe.policy->feedback(result.outcome);
        updateS += secondsSince(start);
        samples.push_back(Sample{env, index, decision});
    }
    timings.decideNs = decideS * 1e9 / kDecisions;
    timings.updateNs = updateS * 1e9 / kDecisions;

    Rng execRng(harness::replicateSeed(config.seed, 1));
    Clock::time_point start = Clock::now();
    for (const Sample &sample : samples) {
        g_sink = g_sink
            + baselines::executeDecisionWithFaults(
                  sim, mix[sample.workload].request, sample.decision,
                  sample.env, config.retry, execRng)
                  .outcome.energyJ;
    }
    timings.runNs = nsPerCall(start, samples.size());

    start = Clock::now();
    for (const Sample &sample : samples) {
        g_sink = g_sink
            + static_cast<double>(
                sim.bestLocalTarget(*mix[sample.workload].network,
                                    sample.env, config.accuracyTargetPct)
                    .vfIndex);
    }
    timings.bestLocalNs = nsPerCall(start, samples.size());

    env::Scenario scenario(config.scenario, config.faults);
    Rng envRng(harness::replicateSeed(config.seed, 2));
    start = Clock::now();
    for (std::size_t k = 0; k < kCheap; ++k) {
        g_sink = g_sink + scenario.next(envRng).rssiWlanDbm;
    }
    timings.envNs = nsPerCall(start, kCheap);

    serve::ArrivalProcess arrivals(config.arrival,
                                   harness::replicateSeed(config.seed, 3));
    std::vector<double> arrivalMs(kCheap);
    start = Clock::now();
    for (double &at : arrivalMs) {
        at = arrivals.nextArrivalMs();
    }
    timings.arrivalNs = nsPerCall(start, kCheap);

    // Offers against a server that drains one request per nominal
    // service time, so the queue sees the workload's own admit/shed mix.
    serve::AdmissionQueue queue(config.admission);
    const double serviceMs = probe.plan->nominalServiceMs;
    double serverClockMs = 0.0;
    std::int64_t admitted = 0;
    start = Clock::now();
    for (std::size_t k = 0; k < kCheap; ++k) {
        const double now = arrivalMs[k];
        while (!queue.empty() && serverClockMs + serviceMs <= now) {
            queue.pop();
            serverClockMs += serviceMs;
        }
        if (queue.empty()) {
            serverClockMs = std::max(serverClockMs, now);
        }
        const serve::Workload &workload = mix[k % mix.size()];
        const serve::QueuedRequest request{
            static_cast<std::int64_t>(k), now, now + workload.request.qosMs,
            static_cast<int>(k % mix.size())};
        admitted += queue.offer(request, now, serviceMs,
                                workload.minServiceMs)
                == serve::AdmissionVerdict::Admitted;
    }
    timings.offerNs = nsPerCall(start, kCheap);
    g_sink = g_sink + static_cast<double>(admitted);

    // One served-request record as the batched loop's metrics recorder
    // makes it: two counter adds and four histogram observations.
    obs::MetricsRegistry registry;
    serve::declareServeHistograms(registry);
    obs::Counter &servedCounter = registry.counter("serve.served");
    obs::Counter &category = registry.counter("serve.decisions.local");
    obs::HistogramHandle depth = registry.histogramHandle("serve.queue_depth");
    obs::HistogramHandle wait = registry.histogramHandle("serve.wait_ms");
    obs::HistogramHandle latency =
        registry.histogramHandle("serve.latency_ms");
    obs::HistogramHandle energy = registry.histogramHandle("serve.energy_mj");
    start = Clock::now();
    for (std::size_t k = 0; k < kCheap; ++k) {
        const double x = static_cast<double>(k % 97);
        servedCounter.add();
        depth.observe(x * 0.1);
        category.add();
        wait.observe(x);
        latency.observe(x + 5.0);
        energy.observe(x * 3.0);
    }
    timings.recordNs = nsPerCall(start, kCheap);
    return timings;
}

int
modeTrace(const Options &options)
{
    const Setup setup(options);
    const std::uint64_t rssBefore = util::currentRssBytes();
    const Clock::time_point start = Clock::now();
    Replay replay(setup);
    const std::uint64_t rssBuilt = util::currentRssBytes();
    replay.serve();
    const Totals totals = replay.finish();
    const double wallS = secondsSince(start);

    const Spans &spans = replay.spans;
    const double visitedFrac = replay.mergeCellsVisitedFrac();
    const core::AutoScaleScheduler *warm = replay.deviceZeroScheduler();
    std::int64_t qtableBytes = 0;
    if (warm != nullptr) {
        const core::QTable &table = warm->agent().table();
        qtableBytes = static_cast<std::int64_t>(
            table.memoryBytes()
            + static_cast<std::size_t>(table.numStates())
                * static_cast<std::size_t>(table.numActions())
                * sizeof(std::uint16_t));
    }
    const CallTimings calls = timeCalls(setup, warm);

    const double served = static_cast<double>(totals.served);
    const double arrivals = static_cast<double>(totals.arrivals);
    auto share = [](double part, double whole) {
        return whole > 0.0 ? part / whole : 0.0;
    };

    JsonOut out;
    out.num("trace.wall_s", wallS);
    out.integer("fleet.epochs", spans.epochs);
    out.num("fleet.epoch_wall_ms.p50",
            percentileNearestRank(spans.epochWallMs, 50.0));
    out.num("fleet.epoch_wall_ms.p99",
            percentileNearestRank(spans.epochWallMs, 99.0));
    out.num("fleet.advance_s", spans.advance);
    out.num("fleet.advance_busy_s", spans.advanceBusy);
    out.num("fleet.shard_imbalance",
            share(spans.slowestShardSum, spans.meanShardSum));
    out.integer("pool.regions", spans.poolRegions);
    out.num("pool.dispatch_s", spans.dispatch);
    out.num("fleet.barrier_fold_s", spans.fold);
    out.num("fleet.barrier_snapshot_s", spans.snapshot);
    out.num("fleet.barrier_merge_s", spans.merge);
    out.integer("fleet.merge_calls", spans.mergeCalls);
    out.num("fleet.merge_cells_visited_frac", visitedFrac);
    out.num("fleet.finish_s", spans.finish);
    out.num("fleet.setup_device0_s", spans.device0);
    out.num("fleet.setup_peers_s", spans.peers);
    out.num("fleet.phase_coverage_frac", share(spans.phaseSum(), wallS));
    out.num("serve.bytes_per_device",
            share(static_cast<double>(rssBuilt)
                      - static_cast<double>(rssBefore),
                  static_cast<double>(totals.devices)));
    out.integer("core.qtable_bytes", qtableBytes);
    out.integer("core.decisions", totals.served);
    out.num("core.decide_ns", calls.decideNs);
    out.num("core.update_ns", calls.updateNs);
    out.num("core.decide_est_s", calls.decideNs * served * 1e-9);
    out.num("core.update_est_s", calls.updateNs * served * 1e-9);
    out.integer("sim.calls", totals.served);
    out.num("sim.run_ns", calls.runNs);
    out.num("sim.best_local_ns", calls.bestLocalNs);
    out.num("sim.run_est_s", calls.runNs * served * 1e-9);
    out.num("env.sample_ns", calls.envNs);
    out.num("env.sample_est_s", calls.envNs * served * 1e-9);
    out.num("serve.arrival_ns", calls.arrivalNs);
    out.num("serve.offer_ns", calls.offerNs);
    out.num("serve.arrival_est_s", calls.arrivalNs * arrivals * 1e-9);
    out.num("serve.offer_est_s", calls.offerNs * arrivals * 1e-9);
    out.num("serve.admit_frac",
            share(static_cast<double>(totals.admitted), arrivals));
    out.num("serve.shed_deadline_frac",
            share(static_cast<double>(totals.shedDeadline), arrivals));
    out.num("serve.shed_overflow_frac",
            share(static_cast<double>(totals.shedOverflow), arrivals));
    out.num("serve.shed_stale_frac",
            share(static_cast<double>(totals.shedStale), arrivals));
    out.num("serve.degraded_frac",
            share(static_cast<double>(totals.degraded), served));
    out.num("fault.wasted_energy_frac",
            share(totals.wastedEnergyJ, totals.energyJ));
    out.num("fault.fallback_frac",
            share(static_cast<double>(totals.faultFallbacks), served));
    out.integer("fault.breaker_short_circuits", totals.shortCircuits);
    out.num("obs.metric_record_ns", calls.recordNs);
    // Every arrival that reached admission is recorded when metering.
    out.integer("obs.metric_records",
                setup.obs.metering() ? totals.arrivals - totals.shedChurn
                                     : 0);
    out.totals(totals, setup.fleet.serve.totalRequests);
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    if (options.mode == "run") {
        return modeRun(options);
    }
    if (options.mode == "setup") {
        return modeSetup(options);
    }
    return modeTrace(options);
}
