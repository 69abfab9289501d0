/**
 * @file
 * Scenario subsystem tests (DESIGN.md §16): parser units, validator
 * diagnostics, the parse -> canonicalize -> reparse fixed point over
 * the whole scenarios/ library, [variant] expansion with
 * replicateSeed-derived seeds, field-by-field equivalence between the
 * library's preset scenarios and FaultPlan::fromName, the flag overlay
 * (applyFlags) against the same settings table as the file route, the
 * malformed-input corpus (tests/scenario_corpus *.bad files, each pinning an
 * expected-error substring), and a seeded mutation fuzzer asserting
 * the loader never crashes and every diagnostic carries file:line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "harness/parallel.h"
#include "scenario/load.h"
#include "scenario/parser.h"
#include "scenario/spec.h"
#include "scenario/variants.h"
#include "util/args.h"
#include "util/format.h"
#include "util/rng.h"

#ifndef AUTOSCALE_SCENARIOS_DIR
#error "build must define AUTOSCALE_SCENARIOS_DIR"
#endif
#ifndef AUTOSCALE_SCENARIO_CORPUS_DIR
#error "build must define AUTOSCALE_SCENARIO_CORPUS_DIR"
#endif

namespace autoscale {
namespace {

namespace fs = std::filesystem;
using scenario::Diagnostics;
using scenario::Doc;
using scenario::LoadedScenario;
using scenario::ScenarioSpec;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "unreadable: " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Sorted *.ext files under @p dir; the suite fails if none exist. */
std::vector<fs::path>
filesWithExtension(const std::string &dir, const std::string &ext)
{
    std::vector<fs::path> paths;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ext) {
            paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    EXPECT_FALSE(paths.empty()) << "no " << ext << " files in " << dir;
    return paths;
}

// ---------------------------------------------------------------------------
// Parser units.

TEST(ScenarioParser, ParsesEveryValueKind)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "# leading comment\n"
        "[meta]\n"
        "name = \"quoted \\\"x\\\"\\n\\t\\\\\"  # trailing comment\n"
        "seed = 42\n"
        "[env]\n"
        "base = [\"S1\", \"D3\"]\n"
        "[fault.blackout]\n"
        "wlan = true\n"
        "p2p = false\n",
        "mem.scn", diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(doc.sections.size(), 3u);

    const scenario::Entry *name = doc.find("meta")->find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->value.kind, scenario::Value::Kind::String);
    EXPECT_EQ(name->value.str, "quoted \"x\"\n\t\\");
    EXPECT_EQ(name->line, 3);

    const scenario::Entry *seed = doc.find("meta")->find("seed");
    ASSERT_NE(seed, nullptr);
    EXPECT_EQ(seed->value.kind, scenario::Value::Kind::Number);
    EXPECT_DOUBLE_EQ(seed->value.num, 42.0);

    const scenario::Entry *base = doc.find("env")->find("base");
    ASSERT_NE(base, nullptr);
    ASSERT_EQ(base->value.kind, scenario::Value::Kind::List);
    ASSERT_EQ(base->value.items.size(), 2u);
    EXPECT_EQ(base->value.items[1].str, "D3");

    const scenario::Section *blackout = doc.find("fault.blackout");
    ASSERT_NE(blackout, nullptr);
    EXPECT_TRUE(blackout->find("wlan")->value.boolean);
    EXPECT_FALSE(blackout->find("p2p")->value.boolean);
}

TEST(ScenarioParser, MalformedLinesAreSkippedNotFatal)
{
    // The parser recovers per line: every bad line is one diagnostic
    // with the right line number, and every good line still lands.
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"ok\"\n"
        "this is not a key value line\n"
        "seed = 7\n"
        "desc = \"unterminated\n",
        "mem.scn", diags);
    ASSERT_EQ(diags.diags().size(), 2u);
    EXPECT_EQ(diags.diags()[0].file, "mem.scn");
    EXPECT_EQ(diags.diags()[0].line, 3);
    EXPECT_NE(diags.diags()[0].message.find("expected 'key = value'"),
              std::string::npos);
    EXPECT_EQ(diags.diags()[1].line, 5);
    EXPECT_NE(diags.diags()[1].message.find("unterminated string"),
              std::string::npos);

    ASSERT_EQ(doc.sections.size(), 1u);
    EXPECT_NE(doc.find("meta")->find("name"), nullptr);
    EXPECT_NE(doc.find("meta")->find("seed"), nullptr);
    EXPECT_EQ(doc.find("meta")->find("desc"), nullptr);
}

TEST(ScenarioParser, KeyOutsideSectionIsReported)
{
    Diagnostics diags;
    scenario::parseScenarioText("name = \"top\"\n", "mem.scn", diags);
    ASSERT_EQ(diags.diags().size(), 1u);
    EXPECT_EQ(diags.diags()[0].line, 1);
    EXPECT_NE(diags.diags()[0].message.find("outside any [section]"),
              std::string::npos);
}

TEST(ScenarioParser, RenderedValuesReparseToEqualValues)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"tab\\there\"\n"
        "seed = 64023\n"
        "[env]\n"
        "base = [\"S1\", \"S2\"]\n",
        "mem.scn", diags);
    ASSERT_TRUE(diags.ok());
    for (const scenario::Section &section : doc.sections) {
        for (const scenario::Entry &entry : section.entries) {
            Diagnostics again;
            const Doc round = scenario::parseScenarioText(
                "[x]\nk = " + entry.value.render() + "\n", "r.scn",
                again);
            ASSERT_TRUE(again.ok()) << entry.value.render();
            EXPECT_TRUE(round.find("x")->find("k")->value.equals(
                entry.value))
                << entry.value.render();
        }
    }
}

// ---------------------------------------------------------------------------
// Validator (bindSpec) semantics.

TEST(ScenarioSpecBind, MinimalTextBindsWithDocumentedDefaults)
{
    Diagnostics diags;
    const Doc doc =
        scenario::parseScenarioText("[meta]\nname = \"tiny\"\n",
                                    "mem.scn", diags);
    const ScenarioSpec spec = scenario::bindSpec(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    EXPECT_EQ(spec.name, "tiny");
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_EQ(spec.deviceModel, "Mi8Pro");
    EXPECT_EQ(spec.population, 1);
    EXPECT_EQ(spec.requests, 1000);
    EXPECT_EQ(spec.trainRuns, -1);
    ASSERT_EQ(spec.envBases.size(), 1u);
    EXPECT_EQ(spec.envBases[0], env::ScenarioId::D3);
    EXPECT_FALSE(spec.declaresFaults());
    EXPECT_TRUE(spec.isSet("meta.name"));
    EXPECT_FALSE(spec.isSet("meta.seed"));
    EXPECT_FALSE(spec.isSet("workload.requests"));
}

TEST(ScenarioSpecBind, ErrorsAccumulateWithFileAndLine)
{
    // One bind reports every problem: the whole point of the
    // accumulating validator is a single fix-everything round trip.
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"\"\n"
        "seed = -3\n"
        "[bogus]\n"
        "x = 1\n"
        "[workload]\n"
        "requests = 1.5\n"
        "requests = 7\n"
        "[arrival]\n"
        "rate_x = 2\n"
        "rate_rps = 10\n",
        "multi.scn", diags);
    scenario::bindSpec(doc, diags);
    EXPECT_GE(diags.diags().size(), 5u);
    for (const scenario::Diag &diag : diags.diags()) {
        EXPECT_EQ(diag.file, "multi.scn");
        EXPECT_GE(diag.line, 1);
        EXPECT_FALSE(diag.message.empty());
    }
    const std::string all = diags.render();
    EXPECT_NE(all.find("must be non-empty"), std::string::npos);
    EXPECT_NE(all.find("must be >= 0"), std::string::npos);
    EXPECT_NE(all.find("unknown section [bogus]"), std::string::npos);
    EXPECT_NE(all.find("duplicate key 'requests'"), std::string::npos);
    EXPECT_NE(all.find("mutually exclusive"), std::string::npos);
}

TEST(ScenarioSpecBind, ExplicitKeysTrackOnlyWhatTheFileWrote)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[workload]\n"
        "requests = 200\n"
        "[fault.blackout]\n"
        "start = 10\n"
        "duration = 20\n"
        "wlan = true\n",
        "mem.scn", diags);
    const ScenarioSpec spec = scenario::bindSpec(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    EXPECT_TRUE(spec.isSet("workload.requests"));
    EXPECT_TRUE(spec.isSet("fault.blackout"));
    // Defaults are never conflict candidates, even though the bound
    // spec carries their values.
    EXPECT_FALSE(spec.isSet("workload.train_runs"));
    EXPECT_FALSE(spec.isSet("arrival.rate_x"));
    EXPECT_TRUE(spec.declaresFaults());
}

TEST(ScenarioSpecBind, ChurnAndOutageSectionsBindTyped)
{
    // DESIGN.md §17: [churn] and the infra outage window are fleet
    // resilience knobs; they bind into the typed spec with the same
    // range discipline as everything else. (Rejections — churn on a
    // population of one, probability sums over 1, outage_ms beyond its
    // period — live in the corpus as .bad files.)
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[device]\n"
        "population = 6\n"
        "[infra]\n"
        "outage_period_ms = 1500\n"
        "outage_ms = 300\n"
        "[churn]\n"
        "crash_prob = 0.08\n"
        "leave_prob = 0.04\n"
        "down_epochs = 2\n"
        "initial_devices = 2\n"
        "join_every_epochs = 2\n",
        "mem.scn", diags);
    const ScenarioSpec spec = scenario::bindSpec(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    EXPECT_DOUBLE_EQ(spec.infra.outagePeriodMs, 1500.0);
    EXPECT_DOUBLE_EQ(spec.infra.outageDurationMs, 300.0);
    EXPECT_DOUBLE_EQ(spec.churn.crashProb, 0.08);
    EXPECT_DOUBLE_EQ(spec.churn.leaveProb, 0.04);
    EXPECT_EQ(spec.churn.downEpochs, 2);
    EXPECT_EQ(spec.churn.initialDevices, 2);
    EXPECT_EQ(spec.churn.joinEveryEpochs, 2);
    EXPECT_TRUE(spec.churn.enabled());
    EXPECT_TRUE(spec.isSet("churn.crash_prob"));
    EXPECT_TRUE(spec.isSet("infra.outage_ms"));
}

// ---------------------------------------------------------------------------
// Preset equivalence: the library's preset-named scenarios must mean
// exactly FaultPlan::fromName, field by field. (The byte-identical
// serve-trace version of this check runs as the scenario_preset_equiv
// ctest.)

void
expectWindowEq(const fault::StepWindow &a, const fault::StepWindow &b)
{
    EXPECT_EQ(a.startStep, b.startStep);
    EXPECT_EQ(a.durationSteps, b.durationSteps);
    EXPECT_EQ(a.periodSteps, b.periodSteps);
}

void
expectPlanEq(const fault::FaultPlan &got, const fault::FaultPlan &want)
{
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.seed, want.seed);
    ASSERT_EQ(got.blackouts.size(), want.blackouts.size());
    for (std::size_t i = 0; i < want.blackouts.size(); ++i) {
        expectWindowEq(got.blackouts[i].window, want.blackouts[i].window);
        EXPECT_EQ(got.blackouts[i].wlan, want.blackouts[i].wlan);
        EXPECT_EQ(got.blackouts[i].p2p, want.blackouts[i].p2p);
    }
    ASSERT_EQ(got.fades.size(), want.fades.size());
    for (std::size_t i = 0; i < want.fades.size(); ++i) {
        EXPECT_EQ(got.fades[i].wlan, want.fades[i].wlan);
        EXPECT_DOUBLE_EQ(got.fades[i].dropDb, want.fades[i].dropDb);
        EXPECT_DOUBLE_EQ(got.fades[i].probability,
                         want.fades[i].probability);
    }
    EXPECT_EQ(got.segments.size(), want.segments.size());
    EXPECT_EQ(got.surges.size(), want.surges.size());
    expectWindowEq(got.brownoutWindow, want.brownoutWindow);
    EXPECT_DOUBLE_EQ(got.brownoutSlowdown, want.brownoutSlowdown);
    EXPECT_DOUBLE_EQ(got.brownoutDownProb, want.brownoutDownProb);
    EXPECT_DOUBLE_EQ(got.throttleFactor, want.throttleFactor);
    EXPECT_DOUBLE_EQ(got.throttleProb, want.throttleProb);
    EXPECT_DOUBLE_EQ(got.transferDropProb, want.transferDropProb);
}

TEST(ScenarioPresets, LibraryFilesMatchFromNameFieldByField)
{
    for (const std::string preset :
         {"blackout", "flaky-wifi", "cloud-brownout"}) {
        SCOPED_TRACE(preset);
        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioFile(std::string(AUTOSCALE_SCENARIOS_DIR)
                                           + "/" + preset + ".scn",
                                       diags);
        ASSERT_TRUE(diags.ok()) << diags.render();
        ASSERT_EQ(loaded.size(), 1u);
        expectPlanEq(loaded[0].spec.faults,
                     fault::FaultPlan::fromName(preset));
    }
}

// ---------------------------------------------------------------------------
// Canonicalization: parse -> canonicalize -> reparse is a byte-exact
// fixed point over every file in the library (TEMPLATE.scn included).

TEST(ScenarioCanonical, FixedPointOverTheWholeLibrary)
{
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIOS_DIR, ".scn")) {
        SCOPED_TRACE(path.string());
        Diagnostics diags;
        const Doc doc = scenario::parseScenarioText(
            slurp(path), path.filename().string(), diags);
        ASSERT_TRUE(diags.ok()) << diags.render();

        const std::string canon = scenario::canonicalText(doc);
        Diagnostics again;
        const Doc reparsed = scenario::parseScenarioText(
            canon, path.filename().string(), again);
        ASSERT_TRUE(again.ok()) << again.render();
        EXPECT_EQ(scenario::canonicalText(reparsed), canon);

        // Canonical text still validates and still means the same
        // variants (names, seeds, axis assignments).
        Diagnostics bindDiags;
        const std::vector<LoadedScenario> fromCanon =
            scenario::loadScenarioText(canon, path.filename().string(),
                                       bindDiags);
        ASSERT_TRUE(bindDiags.ok()) << bindDiags.render();
        Diagnostics origDiags;
        const std::vector<LoadedScenario> fromOrig =
            scenario::loadScenarioText(slurp(path),
                                       path.filename().string(),
                                       origDiags);
        ASSERT_TRUE(origDiags.ok()) << origDiags.render();
        ASSERT_EQ(fromCanon.size(), fromOrig.size());
        for (std::size_t i = 0; i < fromOrig.size(); ++i) {
            EXPECT_EQ(fromCanon[i].spec.name, fromOrig[i].spec.name);
            EXPECT_EQ(fromCanon[i].spec.seed, fromOrig[i].spec.seed);
            EXPECT_EQ(fromCanon[i].assignments,
                      fromOrig[i].assignments);
        }
    }
}

TEST(ScenarioLibrary, EveryFileLoadsCleanly)
{
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIOS_DIR, ".scn")) {
        SCOPED_TRACE(path.string());
        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioFile(path.string(), diags);
        EXPECT_TRUE(diags.ok()) << diags.render();
        EXPECT_FALSE(loaded.empty());
    }
}

// ---------------------------------------------------------------------------
// [variant] expansion.

TEST(ScenarioVariants, FileWithoutVariantSectionExpandsToItself)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\nname = \"solo\"\nseed = 9\n", "mem.scn", diags);
    const std::vector<scenario::Variant> variants =
        scenario::expandVariants(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(variants.size(), 1u);
    EXPECT_EQ(variants[0].index, 0);
    EXPECT_EQ(variants[0].name, "solo");
    EXPECT_EQ(variants[0].seed, 9u);
    EXPECT_TRUE(variants[0].assignments.empty());
}

TEST(ScenarioVariants, CartesianOrderReplicatesAndDerivedSeeds)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"sweep\"\n"
        "seed = 7\n"
        "[variant]\n"
        "arrival.rate_x = [0.5, 2]\n"
        "env.base = [\"S1\", \"D3\"]\n"
        "replicates = 2\n",
        "mem.scn", diags);
    const std::vector<scenario::Variant> variants =
        scenario::expandVariants(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(variants.size(), 8u);

    // First axis outermost, replicate index innermost; every variant
    // is named sweep#i and seeded replicateSeed(meta.seed, i) — a pure
    // function of (file, i), so sharded sweeps agree on every seed.
    const char *const expectRate[] = {"0.5", "0.5", "0.5", "0.5",
                                      "2",   "2",   "2",   "2"};
    const char *const expectBase[] = {"\"S1\"", "\"S1\"", "\"D3\"",
                                      "\"D3\"", "\"S1\"", "\"S1\"",
                                      "\"D3\"", "\"D3\""};
    for (int i = 0; i < 8; ++i) {
        SCOPED_TRACE(i);
        const scenario::Variant &variant =
            variants[static_cast<std::size_t>(i)];
        EXPECT_EQ(variant.index, i);
        EXPECT_EQ(variant.name, "sweep#" + std::to_string(i));
        EXPECT_EQ(variant.seed,
                  harness::replicateSeed(
                      7, static_cast<std::uint64_t>(i)));
        ASSERT_EQ(variant.assignments.size(), 2u);
        EXPECT_EQ(variant.assignments[0].first, "arrival.rate_x");
        EXPECT_EQ(variant.assignments[0].second, expectRate[i]);
        EXPECT_EQ(variant.assignments[1].first, "env.base");
        EXPECT_EQ(variant.assignments[1].second, expectBase[i]);

        // The substituted Doc really carries the axis value.
        const scenario::Section *arrival = variant.doc.find("arrival");
        ASSERT_NE(arrival, nullptr);
        EXPECT_EQ(arrival->find("rate_x")->value.render(),
                  expectRate[i]);
        EXPECT_EQ(variant.doc.find("variant"), nullptr);
    }
}

TEST(ScenarioVariants, SweptFilesMakeNameAndSeedConflictCandidates)
{
    // Variant-derived names/seeds are not file-written keys, but a
    // `--seed` flag against a swept file must still be a conflict —
    // the loader marks meta.name/meta.seed explicit for sweeps.
    Diagnostics diags;
    const std::vector<LoadedScenario> loaded = scenario::loadScenarioText(
        "[meta]\nname = \"s\"\nseed = 3\n"
        "[variant]\narrival.rate_x = [1, 2]\n",
        "mem.scn", diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(loaded.size(), 2u);
    for (const LoadedScenario &one : loaded) {
        EXPECT_TRUE(one.spec.isSet("meta.name"));
        EXPECT_TRUE(one.spec.isSet("meta.seed"));
        EXPECT_TRUE(one.spec.isSet("arrival.rate_x"));
    }
    EXPECT_EQ(loaded[1].spec.name, "s#1");
    EXPECT_EQ(loaded[1].spec.seed, harness::replicateSeed(3, 1));
    // Declared fault plans report under the variant name.
    EXPECT_FALSE(loaded[0].spec.faults.enabled());
}

TEST(ScenarioVariants, AxisErrorsAreReportedPerLine)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[variant]\n"
        "arrival.rate_x = 3\n"
        "meta.name = [\"a\"]\n"
        "fault.blackout.start = [1, 2]\n"
        "replicates = 0\n",
        "mem.scn", diags);
    const std::vector<scenario::Variant> variants =
        scenario::expandVariants(doc, diags);
    EXPECT_TRUE(variants.empty());
    ASSERT_EQ(diags.diags().size(), 4u);
    const std::string all = diags.render();
    EXPECT_NE(all.find("must be a list of values"), std::string::npos);
    EXPECT_NE(all.find("derived per variant"), std::string::npos);
    EXPECT_NE(all.find("not a sweepable singleton section"),
              std::string::npos);
    EXPECT_NE(all.find("replicates must be an integer in [1, 10000]"),
              std::string::npos);
    for (const scenario::Diag &diag : diags.diags()) {
        EXPECT_GE(diag.line, 2);
        EXPECT_LE(diag.line, 5);
    }
}

// ---------------------------------------------------------------------------
// Flag overlay (applyFlags): the command-line route into a spec reads
// the same settings table, ranges and cross-key rules as the file.

/** Spec bound from scenario @p text; the test fails if it is invalid. */
ScenarioSpec
specFromText(const std::string &text)
{
    Diagnostics diags;
    const std::vector<LoadedScenario> loaded =
        scenario::loadScenarioText(text, "mem.scn", diags);
    EXPECT_TRUE(diags.ok()) << diags.render();
    return loaded.empty() ? ScenarioSpec{} : loaded.front().spec;
}

/** Diagnostics of overlaying @p flags onto @p spec. */
Diagnostics
overlay(ScenarioSpec &spec, std::vector<std::string> flags,
        const scenario::FlagRenames &renames = {})
{
    flags.insert(flags.begin(), "autoscale_cli");
    Diagnostics diags;
    scenario::applyFlags(Args(flags), spec, diags, renames);
    return diags;
}

TEST(ScenarioFlags, RestatedValuesAreAcceptedAndDifferentOnesConflict)
{
    const std::string text = "[workload]\nrequests = 300\n"
                             "[arrival]\nrate_x = 3\n";
    ScenarioSpec restated = specFromText(text);
    EXPECT_TRUE(overlay(restated, {"--requests", "300", "--rate-x", "3.0"})
                    .ok());
    EXPECT_EQ(restated.requests, 300);

    ScenarioSpec conflicting = specFromText(text);
    const Diagnostics diags = overlay(conflicting, {"--requests", "999"});
    ASSERT_EQ(diags.diags().size(), 1u);
    EXPECT_EQ(diags.diags()[0].message,
              "--requests 999 conflicts with workload.requests = 300 from "
              "mem.scn (drop the flag or change the file)");
    EXPECT_EQ(conflicting.requests, 300) << "a rejected flag never lands";

    // The other spelling of the arrival rate is the same setting.
    ScenarioSpec crossed = specFromText(text);
    const Diagnostics cross = overlay(crossed, {"--rate-hz", "50"});
    ASSERT_FALSE(cross.ok());
    EXPECT_NE(cross.render().find("--rate-hz and arrival.rate_x (from "
                                  "mem.scn) are mutually exclusive"),
              std::string::npos)
        << cross.render();
}

TEST(ScenarioFlags, FlagsFillSilentKeysAndFileKeysHold)
{
    ScenarioSpec spec = specFromText("[workload]\nrequests = 300\n");
    ASSERT_TRUE(overlay(spec, {"--queue-depth", "16"}).ok());
    EXPECT_EQ(spec.requests, 300);
    EXPECT_EQ(spec.queueDepth, 16);
    EXPECT_TRUE(spec.isSet("qos.queue_depth"));
    EXPECT_FALSE(spec.isSet("qos.degrade_depth"));
}

TEST(ScenarioFlags, RenamesRespellOneCommandsFlag)
{
    const scenario::FlagRenames train = {{"--train-runs", "--runs"}};
    ScenarioSpec spec;
    ASSERT_TRUE(overlay(spec, {"--runs", "7", "--train-runs", "9"}, train)
                    .ok());
    EXPECT_EQ(spec.trainRuns, 7);
    ScenarioSpec evaluate;
    ASSERT_TRUE(overlay(evaluate, {"--runs", "7", "--train-runs", "9"})
                    .ok());
    EXPECT_EQ(evaluate.trainRuns, 9);
}

TEST(ScenarioFlags, SeedsAreSixtyFourBitOnBothRoutes)
{
    ScenarioSpec spec =
        specFromText("[meta]\nseed = 3000000000\n");
    EXPECT_TRUE(overlay(spec, {"--seed", "3000000000"}).ok());
    EXPECT_EQ(spec.seed, 3000000000u);
    ScenarioSpec bare;
    ASSERT_TRUE(overlay(bare, {"--seed", "3000000000"}).ok());
    EXPECT_EQ(bare.seed, 3000000000u);
}

TEST(ScenarioFlags, FleetKeysNeedAPopulationOnBothRoutes)
{
    ScenarioSpec single;
    const Diagnostics diags = overlay(single, {"--q-mode", "shared"});
    ASSERT_FALSE(diags.ok());
    EXPECT_EQ(diags.diags().back().message,
              "--q-mode requires --fleet > 1");
    ScenarioSpec fleet;
    EXPECT_TRUE(overlay(fleet, {"--fleet", "2", "--q-mode", "shared"}).ok());
    EXPECT_EQ(fleet.fleet.qMode, "shared");
}

/** Whether the file route accepts `key = value` (@p value rendered). */
bool
fileAccepts(const std::string &key, const std::string &value)
{
    const std::string section = key.substr(0, key.find('.'));
    std::string text;
    if (section == "fleet" || section == "infra" || section == "churn") {
        text += "[device]\npopulation = 2\n";
    }
    text += "[" + section + "]\n" + key.substr(key.find('.') + 1) + " = "
        + value + "\n";
    Diagnostics diags;
    scenario::loadScenarioText(text, "row.scn", diags);
    return diags.ok();
}

/** Whether the flag route accepts `flag value` on the same footing. */
bool
flagAccepts(const std::string &key, const std::string &flag,
            const std::string &value)
{
    const std::string section = key.substr(0, key.find('.'));
    std::vector<std::string> flags;
    if (section == "fleet" || section == "infra" || section == "churn") {
        flags = {"--fleet", "2"};
    }
    flags.push_back(flag);
    flags.push_back(value);
    ScenarioSpec spec;
    return overlay(spec, flags).ok();
}

TEST(ScenarioFlags, EveryFlagRowAcceptsExactlyWhatItsFileKeyAccepts)
{
    int rows = 0;
    for (const scenario::Setting &setting : scenario::settings()) {
        if (setting.flag == nullptr) {
            continue;
        }
        ++rows;
        SCOPED_TRACE(setting.key);
        // Each value as the file spells it and as the flag spells it.
        std::vector<std::pair<std::string, std::string>> inside;
        std::vector<std::pair<std::string, std::string>> outside;
        ScenarioSpec defaults;
        std::visit(
            [&](auto *field) {
                using T = std::remove_pointer_t<decltype(field)>;
                if constexpr (std::is_same_v<T, std::string>) {
                    inside.push_back({"\"" + *field + "\"", *field});
                    outside.push_back({"\"no-such-value\"",
                                       "no-such-value"});
                } else if constexpr (std::is_same_v<T, double>) {
                    const double inf =
                        std::numeric_limits<double>::infinity();
                    for (const double v : {setting.lo, setting.hi}) {
                        inside.push_back({formatDouble(v), formatDouble(v)});
                    }
                    for (const double v : {std::nextafter(setting.lo, -inf),
                                           std::nextafter(setting.hi, inf)}) {
                        if (std::isfinite(v)) {
                            outside.push_back(
                                {formatDouble(v), formatDouble(v)});
                        }
                    }
                } else {
                    const auto lo = static_cast<long long>(setting.lo);
                    const auto hi = static_cast<long long>(setting.hi);
                    for (const long long v : {lo, hi}) {
                        inside.push_back(
                            {std::to_string(v), std::to_string(v)});
                    }
                    for (const long long v : {lo - 1, hi + 1}) {
                        outside.push_back(
                            {std::to_string(v), std::to_string(v)});
                    }
                }
            },
            setting.field(defaults));
        // The low edge is legal on its own; the high edge may break a
        // cross-key rule against a default (burst_ms above the default
        // burst period), which both routes then share.
        EXPECT_TRUE(fileAccepts(setting.key, inside.front().first))
            << inside.front().first;
        for (const auto &[fileText, flagText] : inside) {
            EXPECT_EQ(flagAccepts(setting.key, setting.flag, flagText),
                      fileAccepts(setting.key, fileText))
                << fileText;
        }
        for (const auto &[fileText, flagText] : outside) {
            EXPECT_FALSE(fileAccepts(setting.key, fileText)) << fileText;
            EXPECT_FALSE(flagAccepts(setting.key, setting.flag, flagText))
                << flagText;
        }
    }
    EXPECT_GE(rows, 30) << "the table lost its flag rows";
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every tests/scenario_corpus/*.bad file is
// rejected, and the rendered diagnostics contain the substring pinned
// on the file's `#! expect:` first line.

TEST(ScenarioCorpus, EveryBadFileIsRejectedWithItsExpectedError)
{
    const std::string directive = "#! expect: ";
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIO_CORPUS_DIR, ".bad")) {
        SCOPED_TRACE(path.string());
        const std::string text = slurp(path);
        ASSERT_EQ(text.rfind(directive, 0), 0u)
            << "corpus file must start with '" << directive << "...'";
        const std::string expect =
            text.substr(directive.size(),
                        text.find('\n') - directive.size());
        ASSERT_FALSE(expect.empty());

        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioText(
                text, path.filename().string(), diags);
        EXPECT_FALSE(diags.ok())
            << "validator accepted a corpus file meant to be invalid";
        EXPECT_NE(diags.render().find(expect), std::string::npos)
            << "expected substring '" << expect << "' in:\n"
            << diags.render();
        for (const scenario::Diag &diag : diags.diags()) {
            EXPECT_EQ(diag.file, path.filename().string());
            EXPECT_GE(diag.line, 0);
            EXPECT_FALSE(diag.message.empty());
        }
        (void)loaded;
    }
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzer: mangle library files and assert the loader
// never crashes, never reports without file:line, and that mutants
// that still validate keep the canonical fixed point.

std::string
mutate(const std::string &text, Rng &rng)
{
    std::string out = text;
    switch (rng.uniformInt(7)) {
    case 0: // Truncate mid-file (often mid-line, mid-string).
        if (!out.empty()) {
            out.resize(static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(out.size()))));
        }
        break;
    case 1: { // Duplicate a random line.
        std::vector<std::string> lines;
        std::stringstream stream(out);
        std::string line;
        while (std::getline(stream, line)) {
            lines.push_back(line);
        }
        if (!lines.empty()) {
            const std::size_t at = static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(lines.size())));
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                         lines[at]);
        }
        out.clear();
        for (const std::string &each : lines) {
            out += each;
            out += '\n';
        }
        break;
    }
    case 2: { // Swap the value after a random '=' for another type.
        const char *const payloads[] = {"\"x\"", "true", "[1, [2]]",
                                        "-1",    "nan",  "1e999"};
        std::vector<std::size_t> equals;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (out[i] == '=') {
                equals.push_back(i);
            }
        }
        if (!equals.empty()) {
            const std::size_t at = equals[static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(equals.size())))];
            const std::size_t end = out.find('\n', at);
            out = out.substr(0, at + 1) + " "
                + payloads[rng.uniformInt(6)]
                + (end == std::string::npos ? "" : out.substr(end));
        }
        break;
    }
    case 3: // Random byte edit.
        if (!out.empty()) {
            out[static_cast<std::size_t>(rng.uniformInt(
                static_cast<int>(out.size())))] =
                static_cast<char>(33 + rng.uniformInt(94));
        }
        break;
    case 4: // Inject an unknown section.
        out += "\n[zz" + std::to_string(rng.uniformInt(100)) + "]\n";
        break;
    case 5: // Duplicate the whole file (duplicate sections + keys).
        out += "\n" + out;
        break;
    default: // Delete a random line.
        if (std::count(out.begin(), out.end(), '\n') > 1) {
            const std::size_t from = static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(out.size())));
            const std::size_t start = out.rfind('\n', from);
            const std::size_t end = out.find('\n', from);
            out = out.substr(0, start == std::string::npos ? 0 : start)
                + (end == std::string::npos ? "" : out.substr(end));
        }
        break;
    }
    return out;
}

TEST(ScenarioFuzz, MutatedLibraryFilesNeverCrashTheLoader)
{
    std::vector<std::string> seeds;
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIOS_DIR, ".scn")) {
        seeds.push_back(slurp(path));
    }
    ASSERT_FALSE(seeds.empty());

    Rng rng(0xbadc0deULL);
    int stillValid = 0;
    for (int iter = 0; iter < 500; ++iter) {
        std::string text =
            seeds[static_cast<std::size_t>(rng.uniformInt(
                static_cast<int>(seeds.size())))];
        const int rounds = 1 + rng.uniformInt(3);
        for (int round = 0; round < rounds; ++round) {
            text = mutate(text, rng);
        }

        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioText(text, "fuzz.scn", diags);
        if (!diags.ok()) {
            // Never accept and report nothing actionable: every
            // diagnostic is anchored to the synthetic file name and a
            // non-negative line.
            for (const scenario::Diag &diag : diags.diags()) {
                ASSERT_EQ(diag.file, "fuzz.scn") << "iter " << iter;
                ASSERT_GE(diag.line, 0) << "iter " << iter;
                ASSERT_FALSE(diag.message.empty()) << "iter " << iter;
            }
            continue;
        }
        // A mutant that still validates must behave like any valid
        // file: at least one variant, and canonicalization stays a
        // fixed point.
        ++stillValid;
        ASSERT_FALSE(loaded.empty()) << "iter " << iter;
        Diagnostics parseDiags;
        const Doc doc = scenario::parseScenarioText(text, "fuzz.scn",
                                                    parseDiags);
        ASSERT_TRUE(parseDiags.ok()) << "iter " << iter;
        const std::string canon = scenario::canonicalText(doc);
        Diagnostics again;
        const Doc reparsed =
            scenario::parseScenarioText(canon, "fuzz.scn", again);
        ASSERT_TRUE(again.ok())
            << "iter " << iter << "\n" << again.render();
        ASSERT_EQ(scenario::canonicalText(reparsed), canon)
            << "iter " << iter;
    }
    // The mutator is noisy but not universally destructive; if nothing
    // survives the corpus stopped exercising the accept path.
    EXPECT_GT(stillValid, 0);
}

} // namespace
} // namespace autoscale
