/**
 * @file
 * Typed scenario specification (DESIGN.md §16): the schema-checked
 * meaning of a parsed scenario Doc. A ScenarioSpec describes one
 * complete, replayable run — device + population, workload mix,
 * Table IV base environment, arrival schedule (constant / diurnal /
 * flash-crowd), declarative fault windows (the generalization of the
 * FaultPlan presets), RSSI/mobility and interference segments,
 * retry/QoS knobs, and shared-infrastructure contention for fleets.
 *
 * Every scalar setting is declared once, in the settings() table: its
 * file key, its CLI flag, its legal range and its ScenarioSpec field.
 * Both routes into a spec read that table. bindSpec is the strict file
 * validator: it accumulates actionable `file:line:` diagnostics
 * (unknown sections/keys, type mismatches, out-of-range or non-finite
 * values, duplicate keys) instead of fataling on the first, and only a
 * Doc that binds with zero diagnostics is a valid scenario. applyFlags
 * overlays command-line flags with the same ranges, and both run the
 * same cross-key rules.
 *
 * canonicalText re-emits a validated Doc in a fixed section/key order
 * with normalized formatting; parse -> canonicalize -> reparse is a
 * byte-exact fixed point (property-tested in test_scenario).
 */

#ifndef AUTOSCALE_SCENARIO_SPEC_H_
#define AUTOSCALE_SCENARIO_SPEC_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "env/scenario.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "scenario/parser.h"
#include "serve/churn.h"
#include "serve/shared_infra.h"
#include "util/args.h"

namespace autoscale::scenario {

/** Arrival-schedule description ([arrival] section). */
struct ArrivalSpec {
    /** Rate as a multiple of nominal local-only capacity. */
    double rateX = 2.0;
    /** Absolute rate, requests/s; > 0 overrides rateX. */
    double rateRps = 0.0;
    /** Flash-crowd burst episodes (period 0 disables). */
    double burstPeriodMs = 2000.0;
    double burstMs = 400.0;
    double burstMult = 4.0;
    /** Diurnal rate modulation (amplitude 0 disables). */
    double diurnalPeriodMs = 0.0;
    double diurnalAmplitude = 0.0;
};

/** Fleet/learning knobs ([fleet] section). */
struct FleetSpec {
    double epochMs = 250.0;
    std::string qMode = "per-device";
    int mergeEpochs = 8;
};

/** The validated, typed meaning of one concrete scenario. */
struct ScenarioSpec {
    /** Path the spec was parsed from ("" for in-memory text). */
    std::string sourceFile;

    // [meta]
    std::string name = "scenario";
    std::string description;
    std::uint64_t seed = 1;

    // [device]
    std::string deviceModel = "Mi8Pro";
    int population = 1;

    // [workload]
    std::string network; ///< Zoo filter; empty = the whole mix.
    std::int64_t requests = 1000;
    int trainRuns = -1; ///< < 0: use the command's default.
    double accuracyTargetPct = 50.0;

    // [env]
    std::vector<env::ScenarioId> envBases{env::ScenarioId::D3};

    ArrivalSpec arrival;

    // [qos]
    int queueDepth = 64;
    int degradeDepth = 8;

    // [retry]
    fault::RetryPolicy retry;

    // [fault*], [mobility.segment], [interference.segment]
    fault::FaultPlan faults;

    FleetSpec fleet;
    serve::SharedInfraConfig infra;
    /** Device churn schedule ([churn] section; fleets only). */
    serve::ChurnConfig churn;

    /**
     * Dotted keys set explicitly ("arrival.rate_x", "meta.seed", ...):
     * by the file, and after applyFlags also by flags. Repeatable
     * sections record their section name ("fault.blackout"). This is
     * what makes file-vs-flag conflict detection exact: a key is a
     * conflict candidate only if the file actually wrote it, never
     * because it happens to equal a default.
     */
    std::set<std::string> explicitKeys;

    /** Whether the file set @p dottedKey explicitly. */
    bool isSet(const std::string &dottedKey) const;

    /** Whether any fault/mobility/interference content was declared. */
    bool declaresFaults() const;
};

/** Where a setting lives in a ScenarioSpec; the pointer type is its kind. */
using FieldRef = std::variant<double *, int *, std::int64_t *,
                              std::uint64_t *, std::string *>;

/** One row of the settings table: a scalar key of a singleton section. */
struct Setting {
    const char *key;        ///< Dotted file key ("arrival.rate_x").
    const char *flag;       ///< CLI spelling ("--rate-x"), or nullptr.
    double lo;              ///< Inclusive legal range (numbers only).
    double hi;
    const char *constraint; ///< The range as diagnostics spell it.
    FieldRef (*field)(ScenarioSpec &spec);
    /** Strings only: the complaint about a value ("" when legal). */
    std::string (*check)(const std::string &value) = nullptr;
};

/** The settings table, in canonical key order. */
const std::vector<Setting> &settings();

/**
 * Bind and validate a parsed Doc. Every schema violation is reported
 * into @p diags (never fatals, never throws); the returned spec is
 * meaningful only when @p diags stays ok().
 */
ScenarioSpec bindSpec(const Doc &doc, Diagnostics &diags);

/** A command's own spelling of table flags: table flag -> spelling. */
using FlagRenames = std::map<std::string, std::string>;

/**
 * Overlay the table flags present in @p args onto @p spec: the spec a
 * --scenario file bound to, or a default-constructed one. Each flag
 * value is checked against its row's range. A flag that restates a
 * file-set key is fine, and a different value is a conflict; doubles
 * compare through formatDouble, so "4" restates "4.0". Applied keys
 * join spec.explicitKeys, and the cross-key rules then run over the
 * merged spec. Errors go to @p diags with an empty file and line 0;
 * @p spec holds only the valid flags. @p renames respells table flags
 * for one command (train's --runs for --train-runs).
 */
void applyFlags(const Args &args, ScenarioSpec &spec, Diagnostics &diags,
                const FlagRenames &renames = {});

/**
 * Canonical text of a validated Doc: comments dropped, sections and
 * keys in schema order (repeatable sections in file order), values
 * re-rendered through formatDouble. parse(canonicalText(doc)) equals
 * doc up to line numbers, and canonicalText is idempotent.
 */
std::string canonicalText(const Doc &doc);

} // namespace autoscale::scenario

#endif // AUTOSCALE_SCENARIO_SPEC_H_
