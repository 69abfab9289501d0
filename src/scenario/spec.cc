#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "dnn/model_zoo.h"
#include "platform/device_zoo.h"
#include "util/format.h"

namespace autoscale::scenario {

namespace {

/** Largest integer exactly representable in the Number payload. */
constexpr double kMaxExactInt = 9007199254740992.0; // 2^53
/**
 * Largest seed either route accepts: below 2^53, so a file value that
 * rounds onto 2^53 is rejected just like the flag spelling it exactly.
 */
constexpr double kMaxSeed = kMaxExactInt - 1;

/** Section names and per-section key order — the canonical order. */
struct SectionSchema {
    std::string name;
    bool repeatable;
    std::vector<std::string> keys;
};

/** Section of a dotted table key ("arrival" for "arrival.rate_x"). */
std::string
sectionOf(const std::string &key)
{
    return key.substr(0, key.find('.'));
}

const std::vector<SectionSchema> &
schema()
{
    static const std::vector<SectionSchema> kSchema = [] {
        // Scalar keys of the singleton sections come from the settings
        // table; only env's list and the repeatable sections are here.
        std::vector<SectionSchema> sections = {
            {"meta", false, {}},
            {"device", false, {}},
            {"workload", false, {}},
            {"env", false, {"base"}},
            {"arrival", false, {}},
            {"qos", false, {}},
            {"retry", false, {}},
            {"fault", false, {}},
            {"fault.blackout", true,
             {"start", "duration", "period", "wlan", "p2p"}},
            {"fault.fade", true, {"wlan", "drop_db", "probability"}},
            {"mobility.segment", true,
             {"start", "duration", "period", "wlan", "attenuation_db"}},
            {"interference.segment", true,
             {"start", "duration", "period", "co_cpu", "co_mem"}},
            {"fleet", false, {}},
            {"infra", false, {}},
            {"churn", false, {}},
            // [variant] keys are free-form axis paths; file order is
            // meaningful and preserved (see variants.h).
            {"variant", false, {}},
        };
        for (const Setting &setting : settings()) {
            const std::string key = setting.key;
            for (SectionSchema &section : sections) {
                if (section.name == sectionOf(key)) {
                    section.keys.push_back(key.substr(key.find('.') + 1));
                }
            }
        }
        return sections;
    }();
    return kSchema;
}

const SectionSchema *
findSectionSchema(const std::string &name)
{
    for (const SectionSchema &section : schema()) {
        if (name == section.name) {
            return &section;
        }
    }
    return nullptr;
}

const char *
kindName(Value::Kind kind)
{
    switch (kind) {
      case Value::Kind::String: return "a string";
      case Value::Kind::Number: return "a number";
      case Value::Kind::Bool: return "a boolean";
      case Value::Kind::List: return "a list";
    }
    return "a value";
}

/**
 * Typed accessor over one section's entries. Reports duplicate and
 * unknown keys once per section, and records every successfully read
 * key into the spec's explicit-key set under "section.key".
 */
class Binder {
  public:
    Binder(const Section &section, const std::string &file,
           const SectionSchema &sectionSchema, Diagnostics &diags,
           std::set<std::string> *explicitKeys)
        : section_(section), file_(file), diags_(diags),
          explicit_(explicitKeys)
    {
        // Duplicate keys are never accepted: last-one-wins in a
        // replayable artifact silently changes the run.
        std::map<std::string, int> first_line;
        for (const Entry &entry : section_.entries) {
            const auto [it, inserted] =
                first_line.emplace(entry.key, entry.line);
            if (!inserted) {
                diags_.error(file_, entry.line,
                             "duplicate key '" + entry.key + "' in ["
                                 + section_.name + "] (first at line "
                                 + std::to_string(it->second) + ")");
            }
        }
        for (const Entry &entry : section_.entries) {
            const std::vector<std::string> &keys = sectionSchema.keys;
            if (std::find(keys.begin(), keys.end(), entry.key)
                == keys.end()) {
                diags_.error(file_, entry.line,
                             "unknown key '" + entry.key + "' in ["
                                 + section_.name + "]");
            }
        }
    }

    /** Dotted path of @p key for messages and the explicit-key set. */
    std::string
    path(const char *key) const
    {
        return section_.name + std::string(".") + key;
    }

    bool
    number(const char *key, double *out)
    {
        const Entry *entry = section_.find(key);
        if (entry == nullptr) {
            return false;
        }
        if (entry->value.kind != Value::Kind::Number) {
            diags_.error(file_, entry->line,
                         path(key) + " must be a number, got "
                             + kindName(entry->value.kind));
            return false;
        }
        if (!std::isfinite(entry->value.num)) {
            diags_.error(file_, entry->line,
                         path(key) + " must be finite");
            return false;
        }
        *out = entry->value.num;
        mark(key);
        return true;
    }

    bool
    integer(const char *key, std::int64_t *out)
    {
        const Entry *entry = section_.find(key);
        if (entry == nullptr) {
            return false;
        }
        double value = 0.0;
        if (!number(key, &value)) {
            return false;
        }
        if (value != std::floor(value) || std::fabs(value) > kMaxExactInt) {
            diags_.error(file_, entry->line,
                         path(key) + " must be an integer, got "
                             + formatDouble(value));
            return false;
        }
        *out = static_cast<std::int64_t>(value);
        return true;
    }

    bool
    boolean(const char *key, bool *out)
    {
        const Entry *entry = section_.find(key);
        if (entry == nullptr) {
            return false;
        }
        if (entry->value.kind != Value::Kind::Bool) {
            diags_.error(file_, entry->line,
                         path(key) + " must be true or false, got "
                             + kindName(entry->value.kind));
            return false;
        }
        *out = entry->value.boolean;
        mark(key);
        return true;
    }

    bool
    string(const char *key, std::string *out)
    {
        const Entry *entry = section_.find(key);
        if (entry == nullptr) {
            return false;
        }
        if (entry->value.kind != Value::Kind::String) {
            diags_.error(file_, entry->line,
                         path(key) + " must be a quoted string, got "
                             + kindName(entry->value.kind));
            return false;
        }
        *out = entry->value.str;
        mark(key);
        return true;
    }

    /** Line of @p key, or of the section when the key is absent. */
    int
    line(const char *key) const
    {
        const Entry *entry = section_.find(key);
        return entry != nullptr ? entry->line : section_.line;
    }

    bool has(const char *key) const { return section_.find(key) != nullptr; }

    void
    fail(const char *key, const std::string &constraint, double got)
    {
        diags_.error(file_, line(key),
                     path(key) + " must be " + constraint + ", got "
                         + formatDouble(got));
    }

    /** Free-form "<path> <message>" diagnostic at @p key's line. */
    void
    failText(const char *key, const std::string &message)
    {
        diags_.error(file_, line(key), path(key) + " " + message);
    }

  private:
    void
    mark(const char *key)
    {
        if (explicit_ != nullptr) {
            explicit_->insert(path(key));
        }
    }

    const Section &section_;
    const std::string &file_;
    Diagnostics &diags_;
    std::set<std::string> *explicit_;
};

/** number + range check in one call; true iff present and valid. */
bool
checkedNumber(Binder &binder, const char *key, double lo, double hi,
              const char *constraint, double *out)
{
    double value = 0.0;
    if (!binder.number(key, &value)) {
        return false;
    }
    if (value < lo || value > hi) {
        binder.fail(key, constraint, value);
        return false;
    }
    *out = value;
    return true;
}

bool
checkedInteger(Binder &binder, const char *key, std::int64_t lo,
               std::int64_t hi, const char *constraint, std::int64_t *out)
{
    std::int64_t value = 0;
    if (!binder.integer(key, &value)) {
        return false;
    }
    if (value < lo || value > hi) {
        binder.fail(key, constraint, static_cast<double>(value));
        return false;
    }
    *out = value;
    return true;
}

/** A step window from start/duration/period keys; true iff valid. */
bool
bindWindow(Binder &binder, Diagnostics &diags, const std::string &file,
           fault::StepWindow *window)
{
    bool ok = true;
    std::int64_t value = 0;
    if (checkedInteger(binder, "start", 0, 1000000000, ">= 0", &value)) {
        window->startStep = value;
    } else if (binder.has("start")) {
        ok = false;
    }
    if (checkedInteger(binder, "duration", 1, 1000000000, ">= 1 (a zero-"
                       "duration window never fires)", &value)) {
        window->durationSteps = value;
    } else {
        // duration is required: a windowed process without one is dead.
        if (!binder.has("duration")) {
            diags.error(file, binder.line("duration"),
                        binder.path("duration") + " is required");
        }
        ok = false;
    }
    if (checkedInteger(binder, "period", 0, 1000000000, ">= 0", &value)) {
        window->periodSteps = value;
    } else if (binder.has("period")) {
        ok = false;
    }
    if (ok && window->periodSteps > 0
        && window->durationSteps > window->periodSteps) {
        binder.fail("duration", "<= period when period > 0",
                    static_cast<double>(window->durationSteps));
        ok = false;
    }
    return ok;
}

env::ScenarioId
parseEnvBase(const std::string &name, int line, const std::string &file,
             Diagnostics &diags, bool *ok)
{
    for (const env::ScenarioId id : env::allScenarios()) {
        if (name == env::scenarioName(id)) {
            return id;
        }
    }
    diags.error(file, line,
                "env.base '" + name
                    + "' is not a Table IV scenario (use S1-S5, D1-D4)");
    *ok = false;
    return env::ScenarioId::D3;
}

void
bindEnv(const Section &section, const std::string &file, ScenarioSpec &spec,
        Diagnostics &diags)
{
    const Entry *entry = section.find("base");
    if (entry == nullptr) {
        return;
    }
    bool ok = true;
    std::vector<env::ScenarioId> bases;
    if (entry->value.kind == Value::Kind::String) {
        bases.push_back(parseEnvBase(entry->value.str, entry->line, file,
                                     diags, &ok));
    } else if (entry->value.kind == Value::Kind::List) {
        for (const Value &item : entry->value.items) {
            if (item.kind != Value::Kind::String) {
                diags.error(file, entry->line,
                            "env.base list items must be strings");
                ok = false;
                break;
            }
            bases.push_back(
                parseEnvBase(item.str, entry->line, file, diags, &ok));
        }
        if (bases.empty() && ok) {
            diags.error(file, entry->line,
                        "env.base must name at least one scenario");
            ok = false;
        }
        for (std::size_t i = 0; ok && i < bases.size(); ++i) {
            for (std::size_t j = i + 1; j < bases.size(); ++j) {
                if (bases[i] == bases[j]) {
                    diags.error(file, entry->line,
                                "env.base lists '"
                                    + std::string(
                                          env::scenarioName(bases[i]))
                                    + "' twice");
                    ok = false;
                    break;
                }
            }
        }
    } else {
        diags.error(file, entry->line,
                    "env.base must be a scenario name or a list of them, "
                    "got " + std::string(kindName(entry->value.kind)));
        ok = false;
    }
    if (ok) {
        spec.envBases = std::move(bases);
        // Recorded by hand: the list form bypasses Binder::string.
        spec.explicitKeys.insert("env.base");
    }
}

/** A number key of the table: bound only when finite and in range. */
void
bindField(Binder &binder, const Setting &setting, const char *key,
          double *field)
{
    checkedNumber(binder, key, setting.lo, setting.hi, setting.constraint,
                  field);
}

/** A string key: bound only when the row's check has no complaint. */
void
bindField(Binder &binder, const Setting &setting, const char *key,
          std::string *field)
{
    std::string text;
    if (!binder.string(key, &text)) {
        return;
    }
    const std::string complaint =
        setting.check != nullptr ? setting.check(text) : "";
    if (complaint.empty()) {
        *field = text;
    } else {
        binder.failText(key, complaint);
    }
}

/** An integer key of any width. */
template <typename Int>
void
bindField(Binder &binder, const Setting &setting, const char *key,
          Int *field)
{
    std::int64_t value = 0;
    if (checkedInteger(binder, key, static_cast<std::int64_t>(setting.lo),
                       static_cast<std::int64_t>(setting.hi),
                       setting.constraint, &value)) {
        *field = static_cast<Int>(value);
    }
}

/** Every table key of singleton section @p section. */
void
bindScalars(Binder &binder, const std::string &section, ScenarioSpec &spec)
{
    for (const Setting &setting : settings()) {
        if (sectionOf(setting.key) != section) {
            continue;
        }
        const char *key = std::strchr(setting.key, '.') + 1;
        std::visit(
            [&](auto *field) { bindField(binder, setting, key, field); },
            setting.field(spec));
    }
}

void
bindBlackout(Binder &binder, const std::string &file, ScenarioSpec &spec,
             Diagnostics &diags, int sectionLine)
{
    fault::FaultPlan::Blackout blackout;
    blackout.wlan = false;
    blackout.p2p = false;
    const bool windowOk = bindWindow(binder, diags, file, &blackout.window);
    binder.boolean("wlan", &blackout.wlan);
    binder.boolean("p2p", &blackout.p2p);
    if (!blackout.wlan && !blackout.p2p) {
        diags.error(file, sectionLine,
                    "[fault.blackout] must set wlan = true, p2p = true, "
                    "or both");
        return;
    }
    if (windowOk) {
        spec.faults.blackouts.push_back(blackout);
        spec.explicitKeys.insert("fault.blackout");
    }
}

void
bindFade(Binder &binder, const std::string &file, ScenarioSpec &spec,
         Diagnostics &diags, int sectionLine)
{
    fault::FaultPlan::Fade fade;
    binder.boolean("wlan", &fade.wlan);
    bool ok = true;
    if (!checkedNumber(binder, "drop_db", 1e-6, 95.0, "within (0, 95]",
                       &fade.dropDb)) {
        if (!binder.has("drop_db")) {
            diags.error(file, sectionLine,
                        "fault.fade.drop_db is required");
        }
        ok = false;
    }
    if (!checkedNumber(binder, "probability", 1e-9, 1.0, "within (0, 1]",
                       &fade.probability)) {
        if (!binder.has("probability")) {
            diags.error(file, sectionLine,
                        "fault.fade.probability is required");
        }
        ok = false;
    }
    if (ok) {
        spec.faults.fades.push_back(fade);
        spec.explicitKeys.insert("fault.fade");
    }
}

void
bindMobilitySegment(Binder &binder, const std::string &file,
                    ScenarioSpec &spec, Diagnostics &diags,
                    int sectionLine)
{
    fault::FaultPlan::Segment segment;
    const bool windowOk = bindWindow(binder, diags, file, &segment.window);
    binder.boolean("wlan", &segment.wlan);
    bool ok = windowOk;
    if (!checkedNumber(binder, "attenuation_db", 1e-6, 95.0,
                       "within (0, 95]", &segment.attenuationDb)) {
        if (!binder.has("attenuation_db")) {
            diags.error(file, sectionLine,
                        "mobility.segment.attenuation_db is required");
        }
        ok = false;
    }
    if (ok) {
        spec.faults.segments.push_back(segment);
        spec.explicitKeys.insert("mobility.segment");
    }
}

void
bindInterferenceSegment(Binder &binder, const std::string &file,
                        ScenarioSpec &spec, Diagnostics &diags,
                        int sectionLine)
{
    fault::FaultPlan::Surge surge;
    const bool windowOk = bindWindow(binder, diags, file, &surge.window);
    bool ok = windowOk;
    if (binder.has("co_cpu")
        && !checkedNumber(binder, "co_cpu", 0.0, 1.0, "within [0, 1]",
                          &surge.cpuUtil)) {
        ok = false;
    }
    if (binder.has("co_mem")
        && !checkedNumber(binder, "co_mem", 0.0, 1.0, "within [0, 1]",
                          &surge.memUtil)) {
        ok = false;
    }
    if (surge.cpuUtil <= 0.0 && surge.memUtil <= 0.0) {
        diags.error(file, sectionLine,
                    "[interference.segment] must raise co_cpu, co_mem, "
                    "or both above 0");
        ok = false;
    }
    if (ok) {
        spec.faults.surges.push_back(surge);
        spec.explicitKeys.insert("interference.segment");
    }
}

std::string
checkName(const std::string &value)
{
    return value.empty() ? "must be non-empty" : "";
}

std::string
checkModel(const std::string &value)
{
    const std::vector<std::string> names = platform::phoneNames();
    if (std::find(names.begin(), names.end(), value) != names.end()) {
        return "";
    }
    std::string known;
    for (const std::string &name : names) {
        if (!known.empty()) {
            known += ", ";
        }
        known += name;
    }
    return "must be one of {" + known + "}, got \"" + value + "\"";
}

std::string
checkNetwork(const std::string &value)
{
    if (value.empty()) {
        return ""; // The whole mix.
    }
    for (const auto &net : dnn::modelZoo()) {
        if (net.name() == value) {
            return "";
        }
    }
    return "must be a model-zoo network name or \"\", got \"" + value
        + "\"";
}

std::string
checkQMode(const std::string &value)
{
    if (value == "per-device" || value == "shared" || value == "federated") {
        return "";
    }
    return "must be one of {per-device, shared, federated}, got \"" + value
        + "\"";
}

/** Spells a key in messages: the dotted key, or the flag that set it. */
using KeyName = std::function<std::string(const std::string &key)>;
/** Receives one violation: the key it is anchored at, and the message. */
using Report =
    std::function<void(const std::string &key, const std::string &message)>;

/**
 * The cross-key rules, one function for both routes, over a spec whose
 * fields hold only values that passed their row's range.
 */
void
checkCrossKeys(const ScenarioSpec &spec, const KeyName &name,
               const Report &report)
{
    const auto exceeds = [&](const char *key, const char *bound,
                             double value) {
        report(key, name(key) + " must be <= " + name(bound) + ", got "
                        + formatDouble(value));
    };
    if (spec.isSet("arrival.rate_x") && spec.isSet("arrival.rate_rps")) {
        report("arrival.rate_rps",
               name("arrival.rate_rps") + " and " + name("arrival.rate_x")
                   + " are mutually exclusive; set one");
    }
    // A burst period <= 0 is the documented "bursts off" spelling.
    const ArrivalSpec &arrival = spec.arrival;
    if (arrival.burstPeriodMs > 0.0
        && arrival.burstMs > arrival.burstPeriodMs) {
        exceeds("arrival.burst_ms", "arrival.burst_period_ms",
                arrival.burstMs);
    }
    if (arrival.diurnalAmplitude > 0.0 && arrival.diurnalPeriodMs <= 0.0) {
        report("arrival.diurnal_amplitude",
               name("arrival.diurnal_amplitude") + " requires "
                   + name("arrival.diurnal_period_ms"));
    }

    const fault::FaultPlan &faults = spec.faults;
    if (faults.brownoutWindow.periodSteps > 0
        && faults.brownoutWindow.durationSteps
               > faults.brownoutWindow.periodSteps) {
        exceeds("fault.brownout_duration", "fault.brownout_period",
                static_cast<double>(faults.brownoutWindow.durationSteps));
    }
    if ((faults.brownoutSlowdown > 1.0 || faults.brownoutDownProb > 0.0)
        && faults.brownoutWindow.durationSteps <= 0) {
        report("fault.brownout_slowdown",
               "a cloud brownout needs a "
                   + name("fault.brownout_duration") + " window to fire in");
    }
    if (faults.throttleFactor < 1.0 && faults.throttleProb <= 0.0) {
        report("fault.throttle_factor",
               name("fault.throttle_factor") + " < 1 needs "
                   + name("fault.throttle_prob") + " > 0 to ever fire");
    }

    const serve::SharedInfraConfig &infra = spec.infra;
    if (infra.brownoutPeriodMs > 0.0
        && infra.brownoutDurationMs > infra.brownoutPeriodMs) {
        exceeds("infra.brownout_ms", "infra.brownout_period_ms",
                infra.brownoutDurationMs);
    }
    if (infra.outagePeriodMs > 0.0
        && infra.outageDurationMs > infra.outagePeriodMs) {
        exceeds("infra.outage_ms", "infra.outage_period_ms",
                infra.outageDurationMs);
    }
    if (spec.churn.crashProb + spec.churn.leaveProb > 1.0) {
        report("churn.leave_prob",
               name("churn.crash_prob") + " + " + name("churn.leave_prob")
                   + " must not exceed 1");
    }

    // Fleet knobs describe shared infrastructure (and churn describes
    // fleet membership); on a population of one there is nothing to
    // share and the keys would silently do nothing — reject instead.
    if (spec.population <= 1) {
        for (const std::string &key : spec.explicitKeys) {
            const std::string section = sectionOf(key);
            if (section == "fleet" || section == "infra"
                || section == "churn") {
                report(key, name(key) + " requires "
                                + name("device.population") + " > 1");
                break;
            }
        }
    } else if (spec.churn.initialDevices > spec.population) {
        exceeds("churn.initial_devices", "device.population",
                spec.churn.initialDevices);
    }
}

/** Strict integer text: optional sign and digits, nothing else. */
bool
parseInteger(const std::string &text, long long *out)
{
    try {
        std::size_t consumed = 0;
        *out = std::stoll(text, &consumed);
        return consumed == text.size();
    } catch (const std::logic_error &) {
        return false; // invalid_argument or out_of_range
    }
}

std::string
render(double value)
{
    return formatDouble(value);
}

std::string
render(const std::string &value)
{
    return "'" + value + "'";
}

template <typename Int>
std::string
render(Int value)
{
    return std::to_string(value);
}

/**
 * Overlay one present flag onto @p field; true iff it was applied.
 * Diagnostics name the flag, so a usage error reads `--flag ...`.
 */
template <typename T>
bool
overlay(const Args &args, const std::string &flag, const Setting &setting,
        const ScenarioSpec &spec, T *field, Diagnostics &diags)
{
    const auto fail = [&](const std::string &message) {
        diags.error("", 0, flag + " " + message);
        return false;
    };
    const std::string text = args.get(flag);
    T value{};
    if constexpr (std::is_same_v<T, std::string>) {
        value = text;
        const std::string complaint =
            setting.check != nullptr ? setting.check(value) : "";
        if (!complaint.empty()) {
            return fail(complaint);
        }
    } else if constexpr (std::is_same_v<T, double>) {
        if (args.parseDouble(flag, &value) != Args::ParseStatus::Ok) {
            return fail("expects a number, got '" + text + "'");
        }
        if (!std::isfinite(value)) {
            return fail("must be finite");
        }
        if (value < setting.lo || value > setting.hi) {
            return fail("must be " + std::string(setting.constraint)
                        + ", got " + formatDouble(value));
        }
    } else {
        long long wide = 0;
        if (!parseInteger(text, &wide)) {
            return fail("expects an integer, got '" + text + "'");
        }
        if (wide < static_cast<long long>(setting.lo)
            || wide > static_cast<long long>(setting.hi)) {
            return fail("must be " + std::string(setting.constraint)
                        + ", got " + std::to_string(wide));
        }
        value = static_cast<T>(wide);
    }
    if (spec.isSet(setting.key) && render(value) != render(*field)) {
        std::string fileValue = render(*field);
        if constexpr (std::is_same_v<T, std::string>) {
            fileValue = "\"" + *field + "\"";
        }
        return fail(render(value) + " conflicts with " + setting.key + " = "
                    + fileValue + " from " + spec.sourceFile
                    + " (drop the flag or change the file)");
    }
    *field = value;
    return true;
}

/** Line of dotted @p key in @p doc: its entry, else its section, else 0. */
int
lineOf(const Doc &doc, const std::string &key)
{
    const Section *section = doc.find(sectionOf(key));
    if (section == nullptr) {
        return 0;
    }
    const Entry *entry = section->find(key.substr(key.find('.') + 1));
    return entry != nullptr ? entry->line : section->line;
}

} // namespace

// `F(member)` is a row's field accessor: &spec.member.
#define F(member)                                                          \
    [](ScenarioSpec &spec) -> FieldRef { return &spec.member; }

const std::vector<Setting> &
settings()
{
    constexpr double kAny = std::numeric_limits<double>::max();
    static const std::vector<Setting> kSettings = {
        // key, flag, lo, hi, constraint, field[, string check]
        {"meta.name", nullptr, 0, 0, "", F(name), checkName},
        {"meta.description", nullptr, 0, 0, "", F(description)},
        {"meta.seed", "--seed", 0, kMaxSeed, ">= 0", F(seed)},
        {"device.model", "--device", 0, 0, "", F(deviceModel), checkModel},
        {"device.population", "--fleet", 1, 1e6, "within [1, 1000000]",
         F(population)},
        {"workload.network", "--network", 0, 0, "", F(network),
         checkNetwork},
        {"workload.requests", "--requests", 1, 1e9, "within [1, 1e9]",
         F(requests)},
        {"workload.train_runs", "--train-runs", 0, 1e6, "within [0, 1e6]",
         F(trainRuns)},
        {"workload.accuracy_target_pct", "--accuracy", 0, 100,
         "within [0, 100]", F(accuracyTargetPct)},
        {"arrival.rate_x", "--rate-x", 1e-6, 1e6, "> 0", F(arrival.rateX)},
        {"arrival.rate_rps", "--rate-hz", 1e-6, 1e9, "> 0",
         F(arrival.rateRps)},
        {"arrival.burst_period_ms", "--burst-period-ms", 0, kAny,
         ">= 0", F(arrival.burstPeriodMs)},
        {"arrival.burst_ms", "--burst-ms", 0, 1e9, ">= 0",
         F(arrival.burstMs)},
        {"arrival.burst_mult", "--burst-mult", 1, 1e6, ">= 1",
         F(arrival.burstMult)},
        {"arrival.diurnal_period_ms", nullptr, 1e-3, 1e12, "> 0",
         F(arrival.diurnalPeriodMs)},
        {"arrival.diurnal_amplitude", nullptr, 0, 0.999999, "within [0, 1)",
         F(arrival.diurnalAmplitude)},
        {"qos.queue_depth", "--queue-depth", 1, 1e6, "within [1, 1e6]",
         F(queueDepth)},
        {"qos.degrade_depth", "--degrade-depth", 0, 1e6, "within [0, 1e6]",
         F(degradeDepth)},
        {"retry.timeout_ms", "--timeout-ms", 1e-3, 1e9, "> 0",
         F(retry.timeoutMs)},
        {"retry.max_retries", "--max-retries", 0, 100, "within [0, 100]",
         F(retry.maxRetries)},
        {"retry.backoff_ms", "--backoff-ms", 0, 1e9, ">= 0",
         F(retry.backoffBaseMs)},
        {"retry.backoff_mult", "--backoff-mult", 1e-6, 1e6, "> 0",
         F(retry.backoffMultiplier)},
        {"fault.seed", "--fault-seed", 0, kMaxSeed, ">= 0",
         F(faults.seed)},
        {"fault.brownout_start", nullptr, 0, 1e9, ">= 0",
         F(faults.brownoutWindow.startStep)},
        {"fault.brownout_duration", nullptr, 1, 1e9,
         ">= 1 (a zero-duration window never fires)",
         F(faults.brownoutWindow.durationSteps)},
        {"fault.brownout_period", nullptr, 0, 1e9, ">= 0",
         F(faults.brownoutWindow.periodSteps)},
        {"fault.brownout_slowdown", nullptr, 1, 1e6, ">= 1",
         F(faults.brownoutSlowdown)},
        {"fault.brownout_down_prob", nullptr, 0, 1, "within [0, 1]",
         F(faults.brownoutDownProb)},
        {"fault.throttle_factor", nullptr, 1e-6, 1, "within (0, 1]",
         F(faults.throttleFactor)},
        {"fault.throttle_prob", nullptr, 0, 1, "within [0, 1]",
         F(faults.throttleProb)},
        {"fault.transfer_drop_prob", nullptr, 0, 1, "within [0, 1]",
         F(faults.transferDropProb)},
        {"fleet.epoch_ms", "--epoch-ms", 1e-3, 1e9, "> 0",
         F(fleet.epochMs)},
        {"fleet.q_mode", "--q-mode", 0, 0, "", F(fleet.qMode), checkQMode},
        {"fleet.merge_epochs", "--merge-epochs", 1, 1e6, "within [1, 1e6]",
         F(fleet.mergeEpochs)},
        // SharedInfra needs at least one slot of each.
        {"infra.edge_capacity", "--edge-capacity", 1, 1e9, ">= 1",
         F(infra.edgeCapacity)},
        {"infra.wifi_capacity", "--wifi-capacity", 1, 1e9, ">= 1",
         F(infra.wifiCapacity)},
        {"infra.contention", "--contention", 1e-6, 1e6, "> 0",
         F(infra.contention)},
        {"infra.brownout_period_ms", "--brownout-period-ms", 0, 1e12, ">= 0",
         F(infra.brownoutPeriodMs)},
        {"infra.brownout_ms", "--brownout-ms", 0, 1e12, ">= 0",
         F(infra.brownoutDurationMs)},
        {"infra.brownout_slowdown", "--brownout-slowdown", 1, 1e6, ">= 1",
         F(infra.brownoutSlowdown)},
        {"infra.outage_period_ms", "--outage-period-ms", 0, 1e12, ">= 0",
         F(infra.outagePeriodMs)},
        {"infra.outage_ms", "--outage-ms", 0, 1e12, ">= 0",
         F(infra.outageDurationMs)},
        {"churn.crash_prob", "--churn-crash-prob", 0, 1, "within [0, 1]",
         F(churn.crashProb)},
        {"churn.leave_prob", "--churn-leave-prob", 0, 1, "within [0, 1]",
         F(churn.leaveProb)},
        {"churn.down_epochs", "--churn-down-epochs", 1, 1e6,
         "within [1, 1e6]", F(churn.downEpochs)},
        {"churn.initial_devices", "--churn-initial-devices", 0, 1e6,
         "within [0, 1e6]", F(churn.initialDevices)},
        {"churn.join_every_epochs", "--churn-join-every", 1, 1e6,
         "within [1, 1e6]", F(churn.joinEveryEpochs)},
    };
    return kSettings;
}

#undef F

bool
ScenarioSpec::isSet(const std::string &dottedKey) const
{
    return explicitKeys.count(dottedKey) > 0;
}

bool
ScenarioSpec::declaresFaults() const
{
    for (const std::string &key : explicitKeys) {
        if (key.rfind("fault", 0) == 0 || key.rfind("mobility", 0) == 0
            || key.rfind("interference", 0) == 0) {
            return true;
        }
    }
    return false;
}

ScenarioSpec
bindSpec(const Doc &doc, Diagnostics &diags)
{
    ScenarioSpec spec;
    spec.sourceFile = doc.file;

    // Unknown and duplicated-singleton sections first, so the messages
    // lead with structure before key-level detail.
    std::map<std::string, int> singleton_line;
    for (const Section &section : doc.sections) {
        const SectionSchema *sectionSchema =
            findSectionSchema(section.name);
        if (sectionSchema == nullptr) {
            diags.error(doc.file, section.line,
                        "unknown section [" + section.name + "]");
            continue;
        }
        if (!sectionSchema->repeatable) {
            const auto [it, inserted] =
                singleton_line.emplace(section.name, section.line);
            if (!inserted) {
                diags.error(doc.file, section.line,
                            "duplicate [" + section.name
                                + "] section (first at line "
                                + std::to_string(it->second) + ")");
            }
        }
    }

    for (const Section &section : doc.sections) {
        const SectionSchema *sectionSchema =
            findSectionSchema(section.name);
        if (sectionSchema == nullptr || section.name == "variant") {
            continue; // [variant] is bound by expandVariants.
        }
        Binder binder(section, doc.file, *sectionSchema, diags,
                      &spec.explicitKeys);
        if (section.name == "env") {
            bindEnv(section, doc.file, spec, diags);
        } else if (section.name == "fault.blackout") {
            bindBlackout(binder, doc.file, spec, diags, section.line);
        } else if (section.name == "fault.fade") {
            bindFade(binder, doc.file, spec, diags, section.line);
        } else if (section.name == "mobility.segment") {
            bindMobilitySegment(binder, doc.file, spec, diags,
                                section.line);
        } else if (section.name == "interference.segment") {
            bindInterferenceSegment(binder, doc.file, spec, diags,
                                    section.line);
        } else {
            bindScalars(binder, section.name, spec);
        }
    }

    checkCrossKeys(
        spec, [](const std::string &key) { return key; },
        [&](const std::string &key, const std::string &message) {
            diags.error(doc.file, lineOf(doc, key), message);
        });

    // The fault plan reports under the scenario's name, exactly like a
    // --faults preset reports under its preset name.
    if (spec.faults.enabled()) {
        spec.faults.name = spec.name;
    }
    return spec;
}

void
applyFlags(const Args &args, ScenarioSpec &spec, Diagnostics &diags,
           const FlagRenames &renames)
{
    std::map<std::string, std::string> spelling; // key -> its flag
    std::set<std::string> fromFlags;
    for (const Setting &setting : settings()) {
        if (setting.flag == nullptr) {
            continue;
        }
        const auto renamed = renames.find(setting.flag);
        const std::string flag =
            renamed != renames.end() ? renamed->second : setting.flag;
        spelling[setting.key] = flag;
        if (!args.has(flag)) {
            continue;
        }
        const bool applied = std::visit(
            [&](auto *field) {
                return overlay(args, flag, setting, spec, field, diags);
            },
            setting.field(spec));
        if (applied) {
            fromFlags.insert(setting.key);
            spec.explicitKeys.insert(setting.key);
        }
    }
    // Messages name a key by the flag that set it, by the file that
    // set it, or else by its flag spelling when it has one.
    checkCrossKeys(
        spec,
        [&](const std::string &key) {
            const auto flag = spelling.find(key);
            if (spec.isSet(key) && fromFlags.count(key) == 0) {
                return key + " (from " + spec.sourceFile + ")";
            }
            return flag != spelling.end() ? flag->second : key;
        },
        [&](const std::string &, const std::string &message) {
            diags.error("", 0, message);
        });
}

std::string
canonicalText(const Doc &doc)
{
    std::ostringstream os;
    bool first = true;
    auto emitSection = [&](const Section &section,
                           const SectionSchema &sectionSchema) {
        if (!first) {
            os << "\n";
        }
        first = false;
        os << "[" << section.name << "]\n";
        if (section.name == "variant") {
            // Axis order is meaningful: keep file order.
            for (const Entry &entry : section.entries) {
                os << entry.key << " = " << entry.value.render() << "\n";
            }
            return;
        }
        for (const std::string &key : sectionSchema.keys) {
            const Entry *entry = section.find(key);
            if (entry != nullptr) {
                os << key << " = " << entry->value.render() << "\n";
            }
        }
    };
    // Singleton sections in schema order; repeatable sections grouped
    // under their schema position, in file order.
    for (const SectionSchema &sectionSchema : schema()) {
        for (const Section &section : doc.sections) {
            if (section.name == sectionSchema.name) {
                emitSection(section, sectionSchema);
                if (!sectionSchema.repeatable) {
                    break;
                }
            }
        }
    }
    return os.str();
}

} // namespace autoscale::scenario