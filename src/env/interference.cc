#include "env/interference.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace autoscale::env {

namespace {

class SyntheticApp : public CoRunningApp {
  public:
    SyntheticApp(std::string name, double cpuUtil, double memUtil)
        : name_(std::move(name)), cpuUtil_(cpuUtil), memUtil_(memUtil)
    {
        AS_CHECK(cpuUtil_ >= 0.0 && cpuUtil_ <= 1.0);
        AS_CHECK(memUtil_ >= 0.0 && memUtil_ <= 1.0);
    }

    const char *name() const override { return name_.c_str(); }

    InterferenceLoad
    next(Rng &) override
    {
        // Section V-B: the static environments fix the runtime variance
        // ("co-running apps with constant CPU and memory usages"), so
        // the synthetic hogs hold their level exactly.
        InterferenceLoad load;
        load.cpuUtil = cpuUtil_;
        load.memUtil = memUtil_;
        return load;
    }

  private:
    std::string name_;
    double cpuUtil_;
    double memUtil_;
};

class MusicPlayerApp : public CoRunningApp {
  public:
    const char *name() const override { return "music player"; }

    InterferenceLoad
    next(Rng &rng) override
    {
        InterferenceLoad load;
        load.cpuUtil = std::clamp(rng.normal(0.12, 0.04), 0.0, 1.0);
        load.memUtil = std::clamp(rng.normal(0.10, 0.03), 0.0, 1.0);
        return load;
    }
};

class WebBrowserApp : public CoRunningApp {
  public:
    const char *name() const override { return "web browser"; }

    InterferenceLoad
    next(Rng &rng) override
    {
        // Two-state Markov chain: page loads are heavy bursts, reading
        // between loads is light. Transition probabilities give bursts
        // of a few consecutive inferences.
        if (loading_) {
            if (rng.bernoulli(0.45)) {
                loading_ = false;
            }
        } else {
            if (rng.bernoulli(0.25)) {
                loading_ = true;
            }
        }
        InterferenceLoad load;
        if (loading_) {
            load.cpuUtil = std::clamp(rng.normal(0.70, 0.12), 0.0, 1.0);
            load.memUtil = std::clamp(rng.normal(0.55, 0.10), 0.0, 1.0);
        } else {
            load.cpuUtil = std::clamp(rng.normal(0.18, 0.05), 0.0, 1.0);
            load.memUtil = std::clamp(rng.normal(0.15, 0.05), 0.0, 1.0);
        }
        return load;
    }

  private:
    bool loading_ = false;
};

class VaryingApps : public CoRunningApp {
  public:
    explicit VaryingApps(int switchEvery)
        : switchEvery_(switchEvery), music_(makeMusicPlayerApp()),
          browser_(makeWebBrowserApp())
    {
        AS_CHECK(switchEvery_ > 0);
    }

    const char *name() const override { return "varying apps"; }

    InterferenceLoad
    next(Rng &rng) override
    {
        const bool use_music = (step_ / switchEvery_) % 2 == 0;
        ++step_;
        return use_music ? music_->next(rng) : browser_->next(rng);
    }

  private:
    int switchEvery_;
    int step_ = 0;
    std::unique_ptr<CoRunningApp> music_;
    std::unique_ptr<CoRunningApp> browser_;
};

} // namespace

std::unique_ptr<CoRunningApp>
makeSyntheticApp(std::string name, double cpuUtil, double memUtil)
{
    return std::make_unique<SyntheticApp>(std::move(name), cpuUtil, memUtil);
}

std::unique_ptr<CoRunningApp>
makeMusicPlayerApp()
{
    return std::make_unique<MusicPlayerApp>();
}

std::unique_ptr<CoRunningApp>
makeWebBrowserApp()
{
    return std::make_unique<WebBrowserApp>();
}

std::unique_ptr<CoRunningApp>
makeVaryingApps(int switchEvery)
{
    return std::make_unique<VaryingApps>(switchEvery);
}

platform::Derate
derateFor(platform::ProcKind kind, const EnvState &env)
{
    platform::Derate derate;
    const double mem_stall = 1.0 - 0.50 * env.coMemUtil;
    const double mem_bw = 1.0 - 0.50 * env.coMemUtil;
    switch (kind) {
      case platform::ProcKind::MobileCpu:
        // Co-runner steals CPU time; high sustained utilization also
        // triggers thermal throttling (Section III-B, citing [59]).
        derate.freqFactor =
            env.thermalFactor * (1.0 - 0.55 * env.coCpuUtil) * mem_stall;
        derate.bandwidthFactor = mem_bw;
        break;
      case platform::ProcKind::MobileGpu:
        // GPU shares the thermal envelope and the memory bus, but not
        // CPU cycles.
        derate.freqFactor =
            (0.5 + 0.5 * env.thermalFactor) * mem_stall;
        derate.bandwidthFactor = mem_bw;
        break;
      case platform::ProcKind::MobileDsp:
      case platform::ProcKind::MobileNpu:
        // Compute-isolated, but the shared LPDDR bus still stalls them.
        derate.freqFactor = mem_stall;
        derate.bandwidthFactor = mem_bw;
        break;
      case platform::ProcKind::ServerCpu:
      case platform::ProcKind::ServerGpu:
      case platform::ProcKind::ServerTpu:
        // Remote execution is unaffected by on-device interference.
        break;
    }
    derate.freqFactor = std::clamp(derate.freqFactor, 0.05, 1.0);
    derate.bandwidthFactor = std::clamp(derate.bandwidthFactor, 0.05, 1.0);
    return derate;
}

double
backgroundPowerW(const platform::Device &device, const EnvState &env)
{
    // The co-runner occupies some cores at some frequency; charge a
    // conservative share of peak CPU power plus DRAM activity.
    const double cpu_peak = device.cpu().busyPowerW(device.cpu().maxVfIndex());
    return 0.35 * env.coCpuUtil * cpu_peak + 0.25 * env.coMemUtil;
}

} // namespace autoscale::env
