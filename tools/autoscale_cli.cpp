/**
 * @file
 * Command-line front-end to the AutoScale library. Lets a user explore
 * the edge-cloud decision problem without writing code:
 *
 *   autoscale_cli devices
 *   autoscale_cli workloads
 *   autoscale_cli characterize --device Mi8Pro
 *   autoscale_cli decide --device Mi8Pro --network "MobileNet v3" \
 *       --co-cpu 0.8 --rssi-wlan -85
 *   autoscale_cli train --device Mi8Pro --scenarios S1,S2,D3 \
 *       --runs 400 --out qtable.txt
 *   autoscale_cli evaluate --device Mi8Pro --qtable qtable.txt \
 *       --scenarios S1,S4 --csv
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/fixed.h"
#include "baselines/oracle.h"
#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "harness/experiment.h"
#include "harness/parallel.h"
#include "obs/json.h"
#include "obs/obs_output.h"
#include "platform/device_zoo.h"
#include "scenario/load.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/table.h"

namespace {

using namespace autoscale;

env::EnvState
envFromArgs(const Args &args)
{
    env::EnvState env;
    env.coCpuUtil = args.getDouble("--co-cpu", 0.0);
    env.coMemUtil = args.getDouble("--co-mem", 0.0);
    env.rssiWlanDbm = args.getDouble("--rssi-wlan", -55.0);
    env.rssiP2pDbm = args.getDouble("--rssi-p2p", -55.0);
    return env;
}

std::vector<env::ScenarioId>
scenariosFromArgs(const Args &args)
{
    const std::string spec = args.get("--scenarios", "S1,S2,S3,S4,S5");
    std::map<std::string, env::ScenarioId> by_name;
    for (const env::ScenarioId id : env::allScenarios()) {
        by_name.emplace(env::scenarioName(id), id);
    }
    std::vector<env::ScenarioId> ids;
    std::stringstream stream(spec);
    std::string token;
    while (std::getline(stream, token, ',')) {
        const auto it = by_name.find(token);
        if (it == by_name.end()) {
            fatal("unknown scenario '" + token + "' (use S1-S5, D1-D4)");
        }
        ids.push_back(it->second);
    }
    if (ids.empty()) {
        fatal("--scenarios parsed to an empty list");
    }
    return ids;
}

/**
 * Strict numeric flag parsers for serve knobs outside the settings
 * table (breaker, checkpoint and shard knobs): a present flag
 * whose value is missing, malformed, has trailing garbage, or
 * overflows is a usage error, not a default.
 */
double
strictDouble(const Args &args, const std::string &flag, double fallback)
{
    double value = fallback;
    if (args.parseDouble(flag, &value) == Args::ParseStatus::Malformed) {
        fatal(flag + " expects a number, got '" + args.get(flag) + "'");
    }
    return value;
}

int
strictInt(const Args &args, const std::string &flag, int fallback)
{
    int value = fallback;
    if (args.parseInt(flag, &value) == Args::ParseStatus::Malformed) {
        fatal(flag + " expects an integer, got '" + args.get(flag) + "'");
    }
    return value;
}

/** Basename of a scenario path, so banners stay checkout-independent. */
std::string
scenarioFileBase(const std::string &path)
{
    return path.substr(path.find_last_of('/') + 1);
}

/**
 * Load `--scenario FILE` (with `--variant N` selection when the file
 * sweeps) into a typed, validated spec. Every diagnostic prints before
 * the fatal, so a broken file reports all its problems in one run.
 */
scenario::ScenarioSpec
loadScenarioArg(const Args &args, const std::string &value)
{
    scenario::Diagnostics diags;
    std::vector<scenario::LoadedScenario> loaded =
        scenario::loadScenarioFile(value, diags);
    if (!diags.ok()) {
        std::cerr << diags.render();
        fatal("invalid scenario file '" + value + "' ("
              + std::to_string(diags.diags().size()) + " error(s))");
    }
    int variant = strictInt(args, "--variant", -1);
    if (variant < 0) {
        if (loaded.size() > 1) {
            fatal("'" + value + "' expands to "
                  + std::to_string(loaded.size())
                  + " variants; pick one with --variant N "
                    "(scenario_lint --expand lists them)");
        }
        variant = 0;
    }
    if (variant >= static_cast<int>(loaded.size())) {
        fatal("--variant " + std::to_string(variant)
              + " out of range; '" + value + "' expands to "
              + std::to_string(loaded.size()) + " variant(s)");
    }
    return loaded[static_cast<std::size_t>(variant)].spec;
}

/**
 * The one resolved spec of a command: the `--scenario FILE` spec (a
 * default-constructed one for an empty @p path) with every table flag
 * present overlaid (scenario::applyFlags). A malformed or out-of-range
 * flag, a flag that conflicts with the file, and a broken cross-key
 * rule are all usage errors.
 */
scenario::ScenarioSpec
resolveSpec(const Args &args, const std::string &path,
            const scenario::FlagRenames &renames = {})
{
    scenario::ScenarioSpec spec =
        path.empty() ? scenario::ScenarioSpec{} : loadScenarioArg(args, path);
    scenario::Diagnostics diags;
    scenario::applyFlags(args, spec, diags, renames);
    const std::vector<scenario::Diag> &errors = diags.diags();
    for (std::size_t i = 0; i + 1 < errors.size(); ++i) {
        std::cerr << "error: " << errors[i].message << "\n";
    }
    if (!errors.empty()) {
        fatal(errors.back().message);
    }
    return spec;
}

/**
 * Fault plan of a resolved spec. A file that declares fault content
 * owns the plan — mixing it with a `--faults` preset is a conflict,
 * not a merge. A set `fault.seed` (file or `--fault-seed`) reseeds
 * either plan.
 */
fault::FaultPlan
mergeFaults(const Args &args, const scenario::ScenarioSpec &spec)
{
    fault::FaultPlan plan;
    if (spec.faults.enabled()) {
        if (args.has("--faults")) {
            fatal("--faults conflicts with the fault sections of "
                  + spec.sourceFile + " (drop the flag or the sections)");
        }
        plan = spec.faults;
    } else {
        plan = fault::FaultPlan::fromName(args.get("--faults", "none"));
    }
    if (spec.isSet("fault.seed")) {
        plan.seed = spec.faults.seed;
    }
    return plan;
}

/**
 * Table IV environment list: `--scenarios` flag vs the file's
 * `env.base`, conflict-checked as whole lists.
 */
std::vector<env::ScenarioId>
mergeScenarios(const Args &args, const scenario::ScenarioSpec &spec)
{
    if (!spec.isSet("env.base")) {
        return scenariosFromArgs(args);
    }
    if (args.has("--scenarios")
        && scenariosFromArgs(args) != spec.envBases) {
        fatal("--scenarios " + args.get("--scenarios")
              + " conflicts with env.base from " + spec.sourceFile
              + " (drop the flag or change the file)");
    }
    return spec.envBases;
}

sim::InferenceSimulator
simFromArgs(const Args &args, const std::string &device)
{
    sim::InferenceSimulator sim = sim::InferenceSimulator::makeDefault(
        platform::makePhone(device));
    // --direct bypasses the precomputed cost tables (DESIGN.md section
    // 13). Outcomes are bit-identical either way; this exists to
    // demonstrate that and to time the difference.
    if (args.has("--direct")) {
        sim.setUseCostCache(false);
    }
    return sim;
}

/** Flag-only simulator (commands without --scenario file support). */
sim::InferenceSimulator
simFromArgs(const Args &args)
{
    return simFromArgs(args, args.get("--device", "Mi8Pro"));
}

/**
 * Worker threads from `--jobs` (default: one per hardware thread).
 * Results are deterministic for every value; `--jobs 1` runs the exact
 * serial loop.
 */
int
jobsFromArgs(const Args &args)
{
    return std::max(1, args.getInt("--jobs", harness::defaultJobs()));
}

int
cmdDevices()
{
    Table table({"Device", "Tier", "Processors", "Actions"});
    for (const std::string &name : platform::phoneNames()) {
        const sim::InferenceSimulator sim =
            sim::InferenceSimulator::makeDefault(platform::makePhone(name));
        std::string procs;
        for (const platform::Processor *proc :
             sim.localDevice().processors()) {
            if (!procs.empty()) {
                procs += ", ";
            }
            procs += proc->name();
        }
        table.addRow({name,
                      platform::deviceTierName(sim.localDevice().tier()),
                      procs,
                      std::to_string(core::buildActionSpace(sim).size())});
    }
    table.print(std::cout);
    return 0;
}

int
cmdWorkloads()
{
    Table table({"Network", "Task", "CONV", "FC", "RC", "MACs (M)",
                 "QoS (ms)"});
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request = sim::makeRequest(net);
        table.addRow({net.name(), dnn::taskName(net.task()),
                      std::to_string(net.numConv()),
                      std::to_string(net.numFc()),
                      std::to_string(net.numRc()),
                      Table::num(net.totalMacsMillions(), 0),
                      Table::num(request.qosMs, 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdCharacterize(const Args &args)
{
    const sim::InferenceSimulator sim = simFromArgs(args);
    const env::EnvState env = envFromArgs(args);
    baselines::OptOracle oracle(sim);
    std::cout << "Device: " << sim.localDevice().name() << "\n\n";
    Table table({"Network", "Optimal target", "Latency (ms)",
                 "Energy (mJ)", "PPW vs CPU FP32"});
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request = sim::makeRequest(
            net, args.getDouble("--accuracy", 50.0));
        const sim::ExecutionTarget opt = oracle.optimalTarget(request, env);
        const sim::Outcome o = sim.expected(net, opt, env);
        const sim::ExecutionTarget cpu{
            sim::TargetPlace::Local, platform::ProcKind::MobileCpu,
            sim.localDevice().cpu().maxVfIndex(), dnn::Precision::FP32};
        const sim::Outcome baseline = sim.expected(net, cpu, env);
        table.addRow({net.name(), opt.label(),
                      Table::num(o.latencyMs, 1),
                      Table::num(o.energyJ * 1e3, 1),
                      Table::times(baseline.energyJ / o.energyJ, 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdDecide(const Args &args)
{
    const sim::InferenceSimulator sim = simFromArgs(args);
    const std::string network = args.get("--network", "MobileNet v3");
    const dnn::Network &net = dnn::findModel(network);
    const env::EnvState env = envFromArgs(args);
    const sim::InferenceRequest request =
        sim::makeRequest(net, args.getDouble("--accuracy", 50.0));

    baselines::OptOracle oracle(sim);
    std::cout << "Network: " << net.name() << " on "
              << sim.localDevice().name() << ", QoS "
              << Table::num(request.qosMs, 1) << " ms, accuracy target "
              << Table::num(request.accuracyTargetPct, 0) << "%\n"
              << "Environment: co-CPU "
              << Table::pct(env.coCpuUtil) << ", co-mem "
              << Table::pct(env.coMemUtil) << ", Wi-Fi "
              << Table::num(env.rssiWlanDbm, 0) << " dBm, Wi-Fi Direct "
              << Table::num(env.rssiP2pDbm, 0) << " dBm\n\n";

    // Rank the whole action space by expected energy under constraints.
    struct Row {
        std::string label;
        double latency;
        double energy;
        bool meets_qos;
        bool meets_accuracy;
    };
    std::vector<Row> rows;
    for (const auto &action : oracle.actions()) {
        const sim::Outcome o = sim.expected(net, action, env);
        if (!o.feasible) {
            continue;
        }
        rows.push_back({action.label(), o.latencyMs, o.energyJ,
                        o.latencyMs < request.qosMs,
                        o.accuracyPct >= request.accuracyTargetPct});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        const int ka = (a.meets_qos && a.meets_accuracy) ? 0 : 1;
        const int kb = (b.meets_qos && b.meets_accuracy) ? 0 : 1;
        return ka != kb ? ka < kb : a.energy < b.energy;
    });

    Table table({"Rank", "Target", "Latency (ms)", "Energy (mJ)",
                 "QoS", "Accuracy"});
    const int top = args.getInt("--top", 8);
    for (int i = 0; i < top && i < static_cast<int>(rows.size()); ++i) {
        const Row &row = rows[static_cast<std::size_t>(i)];
        table.addRow({std::to_string(i + 1), row.label,
                      Table::num(row.latency, 1),
                      Table::num(row.energy * 1e3, 1),
                      row.meets_qos ? "ok" : "VIOLATES",
                      row.meets_accuracy ? "ok" : "FAILS"});
    }
    table.print(std::cout);
    return 0;
}

int
cmdTrain(const Args &args)
{
    // train spells workload.train_runs `--runs`.
    const scenario::ScenarioSpec spec = resolveSpec(
        args, args.get("--scenario"), {{"--train-runs", "--runs"}});

    sim::InferenceSimulator sim = simFromArgs(args, spec.deviceModel);
    const std::vector<env::ScenarioId> scenarios =
        mergeScenarios(args, spec);
    const int runs = spec.trainRuns >= 0 ? spec.trainRuns : 400;
    const std::uint64_t seed = spec.seed;
    const double accuracy = spec.accuracyTargetPct;

    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    const fault::FaultPlan faults = mergeFaults(args, spec);
    const fault::RetryPolicy &retry = spec.retry;
    auto policy = harness::makeAutoScalePolicy(sim, seed);
    Rng rng(seed ^ 0x7ea1ULL);
    std::cout << "Training on " << sim.localDevice().name() << " across "
              << scenarios.size() << " scenario(s), " << runs
              << " runs per (network, scenario)";
    if (faults.enabled()) {
        std::cout << ", faults: " << faults.name;
    }
    std::cout << "...\n";
    harness::trainPolicy(*policy, sim, harness::allZooNetworks(),
                         scenarios, runs, rng, false, accuracy,
                         obs_out.context(), faults, retry);

    // Atomic replace: a crash (or a concurrent reader) never sees a
    // half-written table, and an existing file survives a failed write.
    const std::string out = args.get("--out", "qtable.txt");
    std::ostringstream buffer;
    policy->scheduler().saveQTable(buffer);
    std::string error;
    if (!atomicWriteFile(out, buffer.str(), &error)) {
        fatal("cannot write '" + out + "': " + error);
    }
    std::cout << "Q-table saved to " << out << " ("
              << policy->scheduler().agent().table().memoryBytes() / 1024
              << " KiB in memory)\n";
    obs_out.finalize(&std::cout);
    return 0;
}

int
cmdEvaluate(const Args &args)
{
    const scenario::ScenarioSpec spec =
        resolveSpec(args, args.get("--scenario"));

    sim::InferenceSimulator sim = simFromArgs(args, spec.deviceModel);
    const std::vector<env::ScenarioId> scenarios =
        mergeScenarios(args, spec);
    const std::uint64_t seed = spec.seed;
    const int trainRuns = spec.trainRuns >= 0 ? spec.trainRuns : 400;
    const double accuracy = spec.accuracyTargetPct;

    // The simulator-level counters commute (integer adds), so the
    // shared observer stays deterministic even with concurrent
    // comparator evaluation below.
    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    const fault::FaultPlan faults = mergeFaults(args, spec);
    const fault::RetryPolicy &retry = spec.retry;

    auto autoscale_policy = harness::makeAutoScalePolicy(sim, seed);
    const std::string qtable = args.get("--qtable");
    if (!qtable.empty()) {
        std::ifstream file(qtable);
        if (!file) {
            fatal("cannot open '" + qtable + "'");
        }
        autoscale_policy->scheduler().loadQTable(file);
        std::cout << "Loaded Q-table from " << qtable << "\n";
    } else {
        Rng rng(seed ^ 0x7ea1ULL);
        std::cout << "No --qtable given; training in place...\n";
        harness::trainPolicy(*autoscale_policy, sim,
                             harness::allZooNetworks(), scenarios,
                             trainRuns, rng, false, accuracy, {}, faults,
                             retry);
    }
    autoscale_policy->setExploration(false);

    harness::EvalOptions options;
    options.runsPerCombo = args.getInt("--runs", 30);
    options.accuracyTargetPct = accuracy;
    options.seed = seed + 1;
    options.faults = faults;
    options.retry = retry;

    // The baseline policies are independent of each other and each
    // evaluation derives its randomness from options.seed alone, so
    // they fan out across --jobs workers; every policy's numbers are
    // identical to the serial run. Each task builds its own policy
    // (policies accumulate state) and shares only the simulator.
    struct Baseline {
        std::string name;
        std::function<std::unique_ptr<baselines::SchedulingPolicy>()>
            make;
    };
    const std::vector<Baseline> comparators = {
        {"Edge (CPU FP32)",
         [&] { return baselines::makeEdgeCpuFp32Policy(sim); }},
        {"Edge (Best)", [&] { return baselines::makeEdgeBestPolicy(sim); }},
        {"Cloud", [&] { return baselines::makeCloudPolicy(sim); }},
        {"Connected Edge",
         [&] { return baselines::makeConnectedEdgePolicy(sim); }},
        {"Opt", [&] { return baselines::makeOptOracle(sim); }},
    };
    // When observability is on, each concurrent comparator records
    // into private sinks; they are merged into the run-level sinks in
    // listed order (then AutoScale last), so the exported trace and
    // metrics are byte-identical for every --jobs value.
    struct PolicyResult {
        harness::RunStats stats;
        obs::TraceRecorder trace;
        obs::MetricsRegistry metrics;
    };
    const std::vector<PolicyResult> comparator_results =
        harness::parallelIndexed(
            comparators.size(), jobsFromArgs(args), [&](std::size_t i) {
                auto policy = comparators[i].make();
                PolicyResult result;
                harness::EvalOptions task_options = options;
                if (obs_out.config().tracing()) {
                    task_options.obs.trace = &result.trace;
                }
                if (obs_out.config().metering()) {
                    task_options.obs.metrics = &result.metrics;
                }
                result.stats = harness::evaluatePolicy(
                    *policy, sim, harness::allZooNetworks(), scenarios,
                    task_options);
                return result;
            });
    for (const PolicyResult &result : comparator_results) {
        if (obs_out.config().tracing()) {
            obs_out.trace().append(result.trace);
        }
        if (obs_out.config().metering()) {
            obs_out.metrics().merge(result.metrics);
        }
    }

    // AutoScale runs serially after the merge, so it records straight
    // into the run-level sinks.
    options.obs = obs_out.context();
    const harness::RunStats autoscale_stats = harness::evaluatePolicy(
        *autoscale_policy, sim, harness::allZooNetworks(), scenarios,
        options);

    Table table({"Policy", "PPW (1/J)", "Mean energy (mJ)",
                 "QoS violations", "Opt-match"});
    auto add = [&](const std::string &name,
                   const harness::RunStats &stats) {
        table.addRow({name, Table::num(stats.ppw(), 2),
                      Table::num(stats.meanEnergyJ() * 1e3, 2),
                      Table::pct(stats.qosViolationRatio()),
                      Table::pct(stats.predictionAccuracy())});
    };
    for (std::size_t i = 0; i < comparators.size(); ++i) {
        add(comparators[i].name, comparator_results[i].stats);
    }
    add("AutoScale", autoscale_stats);

    if (args.has("--csv")) {
        table.printCsv(std::cout);
    } else {
        table.print(std::cout);
    }

    if (faults.enabled()) {
        std::cout << "\nFault injection (" << faults.name << ", seed "
                  << faults.seed << ", timeout "
                  << Table::num(retry.timeoutMs, 0) << " ms, "
                  << retry.maxRetries << " retries):\n";
        Table fault_table({"Policy", "Retries", "Timeouts", "Drops",
                           "Fallbacks", "Wasted (mJ)"});
        auto add_faults = [&](const std::string &name,
                              const harness::RunStats &stats) {
            fault_table.addRow(
                {name, std::to_string(stats.faultRetries()),
                 std::to_string(stats.faultTimeouts()),
                 std::to_string(stats.faultDrops()),
                 Table::pct(stats.faultFallbackRatio()),
                 Table::num(stats.faultWastedEnergyJ() * 1e3, 1)});
        };
        for (std::size_t i = 0; i < comparators.size(); ++i) {
            add_faults(comparators[i].name, comparator_results[i].stats);
        }
        add_faults("AutoScale", autoscale_stats);
        if (args.has("--csv")) {
            fault_table.printCsv(std::cout);
        } else {
            fault_table.print(std::cout);
        }
    }
    obs_out.finalize(&std::cout);
    return 0;
}

int
cmdLoo(const Args &args)
{
    const scenario::ScenarioSpec spec =
        resolveSpec(args, args.get("--scenario"));

    sim::InferenceSimulator sim = simFromArgs(args, spec.deviceModel);
    const std::vector<env::ScenarioId> scenarios =
        mergeScenarios(args, spec);
    const int jobs = jobsFromArgs(args);

    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    harness::EvalOptions options;
    options.runsPerCombo = args.getInt("--runs", 30);
    options.looWarmupRuns = args.getInt("--warmup", 150);
    options.accuracyTargetPct = spec.accuracyTargetPct;
    options.seed = spec.seed;
    options.jobs = jobs;
    options.obs = obs_out.context();
    options.faults = mergeFaults(args, spec);
    options.retry = spec.retry;

    std::cout << "Leave-one-out over " << harness::allZooNetworks().size()
              << " workloads on " << sim.localDevice().name() << ", "
              << scenarios.size() << " scenario(s), " << jobs
              << " worker(s)...\n";
    const harness::RunStats loo = harness::evaluateAutoScaleLoo(
        sim, harness::allZooNetworks(), scenarios,
        spec.trainRuns >= 0 ? spec.trainRuns : 400, options);

    Table table({"Metric", "Value"});
    table.addRow({"Evaluated inferences", std::to_string(loo.count())});
    table.addRow({"PPW (1/J)", Table::num(loo.ppw(), 2)});
    table.addRow({"Mean energy (mJ)",
                  Table::num(loo.meanEnergyJ() * 1e3, 2)});
    table.addRow({"QoS violations", Table::pct(loo.qosViolationRatio())});
    table.addRow({"Opt-match", Table::pct(loo.predictionAccuracy())});
    table.addRow({"Near-optimal (1%)",
                  Table::pct(loo.nearOptimalRatio())});
    if (options.faults.enabled()) {
        table.addRow({"Fault retries",
                      std::to_string(loo.faultRetries())});
        table.addRow({"Fault timeouts",
                      std::to_string(loo.faultTimeouts())});
        table.addRow({"Fault drops", std::to_string(loo.faultDrops())});
        table.addRow({"Fault fallbacks",
                      Table::pct(loo.faultFallbackRatio())});
        table.addRow({"Fault wasted energy (mJ)",
                      Table::num(loo.faultWastedEnergyJ() * 1e3, 1)});
    }
    if (args.has("--csv")) {
        table.printCsv(std::cout);
    } else {
        table.print(std::cout);
    }
    obs_out.finalize(&std::cout);
    return 0;
}

int
cmdServe(const Args &args)
{
    // `--scenario` is dual-mode on serve: a Table IV name (S1..D4)
    // keeps its historical meaning; anything else is a scenario file
    // path (scenarios/*.scn).
    const std::string scenarioArg = args.get("--scenario", "D3");
    std::optional<env::ScenarioId> tableIv;
    for (const env::ScenarioId id : env::allScenarios()) {
        if (scenarioArg == env::scenarioName(id)) {
            tableIv = id;
        }
    }
    scenario::ScenarioSpec spec =
        resolveSpec(args, tableIv ? "" : scenarioArg);
    if (tableIv) {
        spec.envBases = {*tableIv};
    }

    sim::InferenceSimulator sim = simFromArgs(args, spec.deviceModel);
    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    serve::ServeConfig config;
    if (spec.envBases.size() != 1) {
        fatal("serve replays one environment, but " + scenarioArg
              + " lists " + std::to_string(spec.envBases.size())
              + " env.base entries (sweep them with [variant])");
    }
    config.scenario = spec.envBases.front();
    config.faults = mergeFaults(args, spec);
    config.retry = spec.retry;
    config.totalRequests = spec.requests;
    config.policyName = args.get("--policy", "autoscale");
    config.networkFilter = spec.network;
    config.accuracyTargetPct = spec.accuracyTargetPct;
    config.seed = spec.seed;
    config.trainRunsPerCombo = spec.trainRuns >= 0 ? spec.trainRuns : 40;
    config.qtablePath = args.get("--qtable");
    config.checkpointPath = args.get("--checkpoint");
    config.checkpointIntervalRequests =
        strictInt(args, "--checkpoint-interval", 100);
    config.resume = args.has("--resume");

    config.admission.maxDepth = spec.queueDepth;
    config.admission.degradeDepth = spec.degradeDepth;

    const std::string breaker = args.get("--breaker", "on");
    if (breaker == "on") {
        config.breakerEnabled = true;
    } else if (breaker == "off") {
        config.breakerEnabled = false;
    } else {
        fatal("--breaker expects 'on' or 'off', got '" + breaker + "'");
    }
    config.breaker.openBaseMs = strictDouble(
        args, "--breaker-open-ms", config.breaker.openBaseMs);
    if (config.breaker.openBaseMs <= 0.0) {
        fatal("--breaker-open-ms must be positive");
    }
    config.breaker.halfOpenSuccesses = strictInt(
        args, "--breaker-probe-successes", config.breaker.halfOpenSuccesses);
    if (config.breaker.halfOpenSuccesses <= 0) {
        fatal("--breaker-probe-successes must be positive");
    }

    // Arrival rate: either absolute (--rate-hz / arrival.rate_rps) or
    // as a multiple of the server's nominal local-only capacity
    // (--rate-x / arrival.rate_x; 2.0 = sustained 2x overload).
    std::vector<const dnn::Network *> networks;
    for (const auto &network : dnn::modelZoo()) {
        if (config.networkFilter.empty()
            || network.name() == config.networkFilter) {
            networks.push_back(&network);
        }
    }
    const double nominal_ms = serve::nominalServiceMs(
        sim, networks, config.accuracyTargetPct);
    const double rate_hz = spec.isSet("arrival.rate_rps")
        ? spec.arrival.rateRps
        : spec.arrival.rateX * 1000.0 / nominal_ms;
    config.arrival.ratePerSec = rate_hz;
    config.arrival.burstPeriodMs = spec.arrival.burstPeriodMs;
    config.arrival.burstDurationMs = spec.arrival.burstMs;
    config.arrival.burstMultiplier = spec.arrival.burstMult;
    config.arrival.diurnalPeriodMs = spec.arrival.diurnalPeriodMs;
    config.arrival.diurnalAmplitude = spec.arrival.diurnalAmplitude;

    // Flags that only mean something in one serving mode fail loudly
    // in the other instead of being silently ignored: a typo'd or
    // misplaced knob must never change which run gets reproduced.
    // (Fleet knobs with a file key already failed in resolveSpec:
    // [fleet], [infra] and [churn] need device.population > 1.)
    if (config.resume && config.checkpointPath.empty()) {
        fatal("--resume requires --checkpoint FILE");
    }
    if (config.checkpointIntervalRequests <= 0) {
        fatal("--checkpoint-interval must be positive");
    }
    if (spec.population <= 1) {
        for (const char *fleetOnly :
             {"--shards", "--checkpoint-every", "--halt-after-epochs",
              "--fleet-qtable-out", "--fleet-memory"}) {
            if (args.has(fleetOnly)) {
                fatal(std::string(fleetOnly)
                      + " requires fleet serving (--fleet N > 1)");
            }
        }
    }
    // --- Fleet mode: device.population N > 1 drives N devices through
    // the shared-infrastructure event loop. A population of 1 (the
    // default) takes the single-device path below, byte-identical to
    // pre-fleet serve.
    if (spec.population > 1) {
        if (args.has("--checkpoint-interval")) {
            fatal("--checkpoint-interval is per-request (single-device "
                  "serving); fleets checkpoint at epoch barriers "
                  "(--checkpoint-every)");
        }
        serve::FleetConfig fleet;
        fleet.serve = config;
        fleet.devices = spec.population;
        fleet.shards = strictInt(args, "--shards", fleet.shards);
        if (fleet.shards < 1) {
            fatal("--shards must be >= 1");
        }
        fleet.jobs = args.getInt("--jobs", 0);
        fleet.qMode = serve::qTableModeFromName(spec.fleet.qMode);
        fleet.federatedMergeEpochs = spec.fleet.mergeEpochs;
        fleet.epochMs = spec.fleet.epochMs;
        fleet.infra = spec.infra;
        fleet.churn = spec.churn;

        // Fleet checkpointing: serve.checkpointPath/resume carry over
        // verbatim; runFleet interprets them as the epoch-barrier
        // manifest (fleet_checkpoint.h), not a per-request checkpoint.
        fleet.checkpointEveryEpochs = strictInt(
            args, "--checkpoint-every", fleet.checkpointEveryEpochs);
        if (fleet.checkpointEveryEpochs < 1) {
            fatal("--checkpoint-every must be >= 1");
        }
        if (args.has("--checkpoint-every")
            && config.checkpointPath.empty()) {
            fatal("--checkpoint-every requires --checkpoint FILE");
        }
        fleet.haltAfterEpochs = strictInt(
            args, "--halt-after-epochs", fleet.haltAfterEpochs);
        if (args.has("--halt-after-epochs")) {
            if (fleet.haltAfterEpochs < 1) {
                fatal("--halt-after-epochs must be >= 1");
            }
            if (config.checkpointPath.empty()) {
                fatal("--halt-after-epochs requires --checkpoint FILE");
            }
        }
        const std::string qtableOut = args.get("--fleet-qtable-out");
        fleet.collectQTables = !qtableOut.empty();
        fleet.reportMemory = args.has("--fleet-memory");

        if (!spec.sourceFile.empty()) {
            std::cout << "Scenario: " << spec.name << " ("
                      << scenarioFileBase(spec.sourceFile) << ")\n";
        }
        std::cout << "Serving fleet of " << fleet.devices << " devices ("
                  << config.totalRequests << " arrivals each) on "
                  << sim.localDevice().name() << ", scenario "
                  << env::scenarioName(config.scenario) << ", q-mode "
                  << serve::qTableModeName(fleet.qMode) << ", "
                  << serve::fleetShardCount(fleet) << " shards...\n";
        const serve::FleetStats stats =
            serve::runFleet(sim, fleet, obs_out.context());
        if (stats.halted) {
            // Simulated crash (--halt-after-epochs): like a SIGKILL at
            // the barrier, nothing is finalized or exported — only the
            // fleet manifest survives for a later --resume.
            std::cout << "Fleet halted after " << stats.epochs
                      << " epochs (fleet checkpoint at "
                      << config.checkpointPath << ")\n";
            return 0;
        }
        serve::printFleetReport(std::cout, fleet, stats);
        if (!qtableOut.empty()) {
            std::ofstream out(qtableOut);
            if (!out) {
                fatal("cannot write '" + qtableOut + "'");
            }
            out << stats.qtableDump;
        }
        obs_out.finalize(&std::cout);
        // Appended after the trace proper so the decision-event bytes
        // stay identical with or without --fleet-memory; trace_summary
        // picks the record up, older readers skip it as an unknown
        // non-decision line.
        if (fleet.reportMemory && obs_out.config().tracing()
            && obs_out.config().traceFormat == obs::TraceFormat::Jsonl) {
            std::ofstream trace(obs_out.config().tracePath,
                                std::ios::app);
            trace << "{\"fleet_memory\":true,\"devices\":"
                  << fleet.devices << ",\"peak_rss_bytes\":"
                  << stats.peakRssBytes << ",\"bytes_per_device\":"
                  << obs::jsonNumber(stats.bytesPerDevice) << "}\n";
        }
        return 0;
    }

    if (!spec.sourceFile.empty()) {
        std::cout << "Scenario: " << spec.name << " ("
                  << scenarioFileBase(spec.sourceFile) << ")\n";
    }
    std::cout << "Serving " << config.totalRequests << " arrivals on "
              << sim.localDevice().name() << ", scenario "
              << env::scenarioName(config.scenario) << ", rate "
              << Table::num(rate_hz, 1) << " req/s (nominal capacity "
              << Table::num(1000.0 / nominal_ms, 1) << " req/s)";
    if (config.faults.enabled()) {
        std::cout << ", faults: " << config.faults.name;
    }
    std::cout << ", breaker " << (config.breakerEnabled ? "on" : "off")
              << "...\n";

    const serve::ServeStats stats =
        serve::runServe(sim, config, obs_out.context());
    serve::printServeReport(std::cout, config, stats);
    obs_out.finalize(&std::cout);
    return 0;
}

int
usage()
{
    std::cout <<
        "autoscale_cli — AutoScale (MICRO 2020) reproduction CLI\n\n"
        "Commands:\n"
        "  devices                      list the device fleet\n"
        "  workloads                    list the Table III workloads\n"
        "  characterize --device D      optimal target per workload\n"
        "  decide --device D --network N [--co-cpu F] [--co-mem F]\n"
        "         [--rssi-wlan DBM] [--rssi-p2p DBM] [--accuracy PCT]\n"
        "         [--top K]             rank execution targets\n"
        "  train --device D [--scenarios S1,S2,...] [--runs N]\n"
        "        [--seed N] [--out FILE]\n"
        "  evaluate --device D [--qtable FILE] [--scenarios ...]\n"
        "           [--runs N] [--train-runs N] [--jobs N] [--csv]\n"
        "  loo --device D [--scenarios ...] [--runs N] [--train-runs N]\n"
        "      [--warmup N] [--seed N] [--jobs N] [--csv]\n"
        "  serve --device D [--scenario S] [--requests N]\n"
        "        [--rate-x F | --rate-hz F] [--burst-period-ms F]\n"
        "        [--burst-ms F] [--burst-mult F] [--queue-depth N]\n"
        "        [--degrade-depth N] [--breaker on|off]\n"
        "        [--breaker-open-ms F] [--breaker-probe-successes N]\n"
        "        [--checkpoint FILE] [--checkpoint-interval N] [--resume]\n"
        "        [--qtable FILE] [--train-runs N] [--network NAME]\n"
        "        [--policy autoscale|cloud|connected-edge|edge-best|\n"
        "         edge-cpu]\n"
        "        [--seed N]            online serving loop: stochastic\n"
        "                              arrivals, admission control,\n"
        "                              circuit breakers, crash-safe\n"
        "                              Q-table checkpoints\n"
        "  serve --fleet N              fleet mode: N devices contending\n"
        "        [--shards N]          minimum partition count\n"
        "                              (output-invariant, default 4;\n"
        "                              at least one per 1024 devices)\n"
        "        [--jobs N]            worker threads\n"
        "        [--q-mode per-device|shared|federated]\n"
        "        [--merge-epochs N]    federated merge period (default 8)\n"
        "        [--epoch-ms F]        contention barrier interval\n"
        "                              (default 250)\n"
        "        [--edge-capacity F]   shared edge slots (default 4)\n"
        "        [--wifi-capacity F]   concurrent transfers before\n"
        "                              congestion (default 8)\n"
        "        [--contention F]      demand multiplier (default 1)\n"
        "        [--brownout-period-ms F] [--brownout-ms F]\n"
        "        [--brownout-slowdown F]  shared cloud brownout windows\n"
        "        [--outage-period-ms F] [--outage-ms F]\n"
        "                              edge-server outage windows\n"
        "        [--churn-crash-prob P] [--churn-leave-prob P]\n"
        "        [--churn-down-epochs N]  per-device per-epoch churn\n"
        "        [--churn-initial-devices N] [--churn-join-every N]\n"
        "                              staggered fleet ramp-up\n"
        "        [--checkpoint FILE] [--checkpoint-every N] [--resume]\n"
        "                              epoch-barrier fleet manifest +\n"
        "                              checkpoint-verified replay resume\n"
        "        [--halt-after-epochs N]  simulate a crash at a barrier\n"
        "        [--fleet-qtable-out FILE] dump all final Q-tables\n"
        "        [--fleet-memory]      report peak RSS and bytes/device\n"
        "                              (and append a fleet_memory record\n"
        "                              to a JSONL --trace)\n\n"
        "Scenario files (train, evaluate, loo, serve):\n"
        "  --scenario FILE              load a declarative .scn scenario\n"
        "                               (on serve, a Table IV name S1-D4\n"
        "                               keeps its classic meaning)\n"
        "  --variant N                  pick one expansion of a file\n"
        "                               with a [variant] sweep\n"
        "  Flags override file values; a flag and a file key set to\n"
        "  DIFFERENT values is a fatal conflict. A flag accepts exactly\n"
        "  the range of its file key, and fleet-only flags need\n"
        "  --fleet N > 1. Validate and expand files with the\n"
        "  scenario_lint tool; library lives in scenarios/.\n\n"
        "Fault injection (train, evaluate, loo, serve):\n"
        "  --faults NAME                none (default), blackout,\n"
        "                               flaky-wifi, or cloud-brownout\n"
        "  --fault-seed N               fault-process RNG seed\n"
        "  --timeout-ms F               per-attempt remote deadline\n"
        "                               (default 300)\n"
        "  --max-retries N              remote retries before the forced\n"
        "                               local fallback (default 2)\n"
        "  --backoff-ms F               idle gap before the first retry\n"
        "                               (default 25)\n"
        "  --backoff-mult F             backoff growth per retry\n"
        "                               (default 2)\n\n"
        "Observability (train, evaluate, loo, serve):\n"
        "  --trace FILE                 record one structured event per\n"
        "                               inference decision\n"
        "  --trace-format jsonl|chrome  JSON Lines (default) or Chrome\n"
        "                               about://tracing format\n"
        "  --metrics FILE               dump counters/gauges/histograms\n"
        "  (summarize JSONL traces with the trace_summary tool)\n\n"
        "Devices: Mi8Pro, \"Galaxy S10e\", \"Moto X Force\"\n"
        "Scenarios: S1-S5 (static), D1-D4 (dynamic), per Table IV\n"
        "--direct: bypass the precomputed cost-model tables and walk\n"
        "the layer model per decision (bit-identical results; exists\n"
        "to prove it, and for bench_decision_path's perf gate).\n"
        "--jobs N: worker threads (default: hardware concurrency).\n"
        "Results — including --trace and --metrics files — are\n"
        "bit-identical for every --jobs value; --jobs 1 runs fully\n"
        "serial.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        return usage();
    }
    const Args args(argc, argv);
    // Repeated flags resolve last-one-wins, but a CONFLICTING repeat of
    // a determinism-critical flag is fatal: silently dropping one value
    // would change which run the user thinks they reproduced.
    for (const char *flag : {"--jobs", "--seed", "--seeds"}) {
        if (args.hasConflictingDuplicate(flag)) {
            fatal(std::string(flag)
                  + " given multiple times with conflicting values");
        }
    }
    const std::string command = argv[1];
    if (command == "devices") {
        return cmdDevices();
    }
    if (command == "workloads") {
        return cmdWorkloads();
    }
    if (command == "characterize") {
        return cmdCharacterize(args);
    }
    if (command == "decide") {
        return cmdDecide(args);
    }
    if (command == "train") {
        return cmdTrain(args);
    }
    if (command == "evaluate") {
        return cmdEvaluate(args);
    }
    if (command == "loo") {
        return cmdLoo(args);
    }
    if (command == "serve") {
        return cmdServe(args);
    }
    return usage();
}
