#include "synergy/queue.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sim/fault.hpp"
#include "sim/power_model.hpp"

namespace dsem::synergy {

Queue::Queue(Device& device, ExecMode mode) : device_(&device), mode_(mode) {}

void Queue::set_kernel_frequency_plan(std::map<std::string, double> plan,
                                      double fallback_mhz) {
  DSEM_ENSURE(!plan.empty(), "empty kernel frequency plan");
  for (const auto& [name, mhz] : plan) {
    DSEM_ENSURE(mhz > 0.0, "plan frequency must be positive: " + name);
  }
  plan_ = std::move(plan);
  plan_fallback_mhz_ = fallback_mhz;
}

void Queue::clear_kernel_frequency_plan() {
  plan_.clear();
  plan_fallback_mhz_ = 0.0;
}

LaunchRecord Queue::submit(const KernelLaunch& launch) {
  DSEM_ENSURE(launch.work_items > 0, "kernel launch with zero work items");
  trace::Span span("queue.submit", trace::cat::kQueue);
  span.arg(launch.profile.name);
  if (!plan_.empty()) {
    const auto it = plan_.find(launch.profile.name);
    if (it != plan_.end()) {
      device_->set_frequency(it->second);
    } else if (plan_fallback_mhz_ > 0.0) {
      device_->set_frequency(plan_fallback_mhz_);
    } else {
      device_->reset_frequency();
    }
  }
  if (mode_ == ExecMode::kValidate && launch.host_impl) {
    launch.host_impl();
  }
  const sim::LaunchResult result =
      device_->simulated().launch(launch.profile, launch.work_items,
                                  profile_cache_);

  LaunchRecord record;
  record.kernel_name = launch.profile.name;
  record.work_items = launch.work_items;
  record.time_s = result.time_s;
  record.energy_j = result.energy_j;
  record.frequency_mhz = result.frequency_mhz;

  // A mid-stream clock retarget (per-kernel DVFS) stalls this launch for
  // the switch latency, during which the device idles at the new clock.
  if (last_freq_mhz_ > 0.0 && last_freq_mhz_ != result.frequency_mhz) {
    const auto& spec = device_->spec();
    const double switch_s = spec.freq_switch_overhead_us * 1e-6;
    record.time_s += switch_s;
    record.energy_j += switch_s * sim::idle_power_w(spec, result.frequency_mhz);
  }
  last_freq_mhz_ = result.frequency_mhz;

  // Checked before the totals advance, so a garbage read never enters
  // the log.
  sim::check_reading(record.kernel_name, record.time_s, record.energy_j);

  span.value(record.energy_j);
  // record.time_s/energy_j are simulated quantities (replica-seeded):
  // deterministic across pool sizes, unlike the wall time of this call.
  if (metrics::enabled()) {
    metrics::counter("queue.launches");
    metrics::histogram("queue.launch_time_s", record.time_s);
    metrics::histogram("queue.launch_energy_j", record.energy_j);
  }
  total_time_s_ += record.time_s;
  total_energy_j_ += record.energy_j;
  records_.push_back(record);
  return record;
}

std::vector<Queue::KernelSummary> Queue::kernel_summaries() const {
  std::map<std::string, KernelSummary> by_name;
  for (const auto& r : records_) {
    auto& s = by_name[r.kernel_name];
    s.name = r.kernel_name;
    ++s.launches;
    s.time_s += r.time_s;
    s.energy_j += r.energy_j;
  }
  std::vector<KernelSummary> out;
  out.reserve(by_name.size());
  for (auto& [_, summary] : by_name) {
    out.push_back(std::move(summary));
  }
  return out;
}

void Queue::reset() {
  records_.clear();
  total_time_s_ = 0.0;
  total_energy_j_ = 0.0;
  last_freq_mhz_ = 0.0;
}

} // namespace dsem::synergy
