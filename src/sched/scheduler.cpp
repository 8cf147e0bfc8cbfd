#include "sched/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/sweep.hpp"
#include "obs/ledger.hpp"
#include "serve/advisor.hpp"
#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "sim/power_model.hpp"
#include "synergy/queue.hpp"

namespace dsem::sched {

namespace {

/// What the model policy holds per application for one run: the artifact
/// snapshot, its candidate clocks and its ledger label.
struct AppModel {
  std::shared_ptr<const serve::ModelArtifact> artifact;
  std::vector<double> cand_freqs_mhz; ///< ascending
  std::string label;                  ///< JobRecord::model
};

/// One input's noise-free launch-class costs at one clock.
struct ClockCosts {
  double mhz = 0.0;                   ///< the clock a replica would run at
  std::vector<sim::LaunchCost> costs; ///< index-aligned with the classes
};

/// Results of the parallel planning pass for one distinct job input,
/// written into pre-sized slots so the pass is bit-identical for any pool
/// size, plus the input's cost memo, which the serial phase 2 fills.
struct InputPlan {
  double ref_time_s = 0.0;   ///< noise-free runtime at the default clock
  double ref_energy_j = 0.0; ///< noise-free energy at the default clock
  // Model policy only: predicted curves over app->cand_freqs_mhz,
  // index-aligned.
  const AppModel* app = nullptr;
  std::vector<double> cand_time_s;
  std::vector<double> cand_energy_j;
  // The input's distinct launch classes and, from its reference run, its
  // launch sequence as indexes into them.
  std::vector<core::KernelLaunch> classes;
  std::vector<std::uint32_t> sequence;
  /// Filled the first time a job of this input runs at a clock.
  std::vector<ClockCosts> memo;
};

/// Orders job inputs by everything a plan depends on: the full workload
/// spec (two Cronos runs of equal dims and different step counts share
/// features but not reference runs) and the features by bit pattern.
struct InputLess {
  bool operator()(const serve::TimedJob* a,
                  const serve::TimedJob* b) const noexcept {
    if (const auto order = a->spec <=> b->spec; order != 0) {
      return order < 0;
    }
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return std::lexicographical_compare(
        a->request.features.begin(), a->request.features.end(),
        b->request.features.begin(), b->request.features.end(),
        [&](double x, double y) { return bits(x) < bits(y); });
  }
};

/// Every `stride`-th schedule frequency, with the maximum always kept so
/// the run-at-max fallback exists on every candidate grid.
std::vector<double> strided_candidates(std::span<const double> freqs_mhz,
                                       std::size_t stride) {
  DSEM_ENSURE(!freqs_mhz.empty(), "sched: artifact has no frequencies");
  std::vector<double> out = core::every_nth(freqs_mhz, stride);
  if (out.back() != freqs_mhz.back()) {
    out.push_back(freqs_mhz.back());
  }
  DSEM_ENSURE(std::is_sorted(out.begin(), out.end()),
              "sched: artifact frequency schedule must ascend");
  return out;
}

} // namespace

FrequencyPick pick_deadline_frequency(std::span<const double> time_s,
                                      std::span<const double> energy_j,
                                      double start_s, double deadline_s,
                                      double margin) {
  DSEM_ENSURE(time_s.size() == energy_j.size() && !time_s.empty(),
              "sched: candidate arrays must be non-empty and aligned");
  DSEM_ENSURE(margin > 0.0, "sched: margin must be > 0");
  FrequencyPick pick;
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < time_s.size(); ++i) {
    if (start_s + margin * time_s[i] <= deadline_s &&
        energy_j[i] < best_energy) {
      best_energy = energy_j[i];
      pick.index = i;
      pick.feasible = true;
    }
  }
  if (!pick.feasible) {
    pick.index = time_s.size() - 1; // run-at-max fallback
  }
  return pick;
}

int place_first_fit(std::span<const double> rank_free_s) {
  DSEM_ENSURE(!rank_free_s.empty(), "sched: no ranks");
  std::size_t best = 0;
  for (std::size_t rank = 1; rank < rank_free_s.size(); ++rank) {
    if (rank_free_s[rank] < rank_free_s[best]) {
      best = rank;
    }
  }
  return static_cast<int>(best);
}

ClusterScheduler::ClusterScheduler(celerity::Cluster& cluster,
                                   const serve::ModelRegistry& registry,
                                   SchedConfig config)
    : cluster_(cluster), registry_(registry), config_(std::move(config)) {
  DSEM_ENSURE(config_.margin > 0.0, "sched: margin must be > 0");
  DSEM_ENSURE(config_.freq_stride >= 1, "sched: freq_stride must be >= 1");
}

std::vector<JobOutcome>
ClusterScheduler::run(std::span<const serve::TimedJob> jobs) {
  const auto wall_start = std::chrono::steady_clock::now();
  stats_ = SchedStats{};
  stats_.jobs = jobs.size();

  obs::Ledger* const ledger = config_.ledger;

  const sim::DeviceSpec& spec = cluster_.device(0).spec();
  const double default_mhz = cluster_.device(0).default_frequency();
  const bool model_driven = config_.frequency == FrequencyPolicy::kModel;

  // Resolve one immutable artifact snapshot per application up front —
  // like ServeLoop, decisions within one run never mix model versions —
  // with its candidate clocks and ledger label, and reject a bad request
  // before any job runs.
  std::map<std::string, AppModel> apps;
  if (model_driven) {
    for (const auto& job : jobs) {
      serve::validate(job.request);
      AppModel& app = apps[job.spec.application];
      if (app.artifact == nullptr) {
        app.artifact = registry_.require(
            serve::ModelKey{job.spec.application, config_.device});
        app.cand_freqs_mhz =
            strided_candidates(app.artifact->freqs_mhz, config_.freq_stride);
        app.label =
            app.artifact->key.to_string() + "@" + app.artifact->origin;
      }
    }
  }

  // Baselines pin the cluster clock up front through the broadcast path
  // and honor what each rank actually reports: a rank that rejected the
  // request keeps — and is accounted at — its real clock.
  std::vector<double> rank_clock_mhz(
      static_cast<std::size_t>(cluster_.size()), 0.0);
  if (config_.frequency == FrequencyPolicy::kMaxClock) {
    const auto supported = cluster_.device(0).supported_frequencies();
    DSEM_ENSURE(!supported.empty(), "sched: device reports no frequencies");
    const double max_mhz =
        *std::max_element(supported.begin(), supported.end());
    for (const auto& result : cluster_.set_frequency_all(max_mhz)) {
      if (!result.ok) {
        ++stats_.clock_rejections;
      }
      rank_clock_mhz[static_cast<std::size_t>(result.rank)] =
          result.actual_mhz;
    }
  }

  // Phase 1 — plan each distinct job input once. A serial pass numbers
  // the inputs in order of first appearance (independent of the pool);
  // the parallel pass fills one pre-sized slot per input with the
  // noise-free reference run at the default clock and, under the model
  // policy, the predicted time/energy curves over the candidates.
  std::vector<std::size_t> job_input(jobs.size());
  std::vector<std::size_t> input_job; // first job of each input
  {
    std::map<const serve::TimedJob*, std::size_t, InputLess> index;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto [it, inserted] = index.try_emplace(&jobs[i], input_job.size());
      if (inserted) {
        input_job.push_back(i);
      }
      job_input[i] = it->second;
    }
  }
  std::vector<InputPlan> plans(input_job.size());
  parallel_for(0, plans.size(), [&](std::size_t input) {
    const serve::TimedJob& job = jobs[input_job[input]];
    InputPlan& plan = plans[input];

    sim::Device ref_device(spec, sim::NoiseConfig::none(), 0);
    synergy::Device ref_synergy(ref_device);
    synergy::Queue ref_queue(ref_synergy, synergy::ExecMode::kSimOnly);
    const auto workload = serve::make_workload(job.spec);
    workload->submit(ref_queue);
    plan.ref_time_s = ref_queue.total_time_s();
    plan.ref_energy_j = ref_queue.total_energy_j();

    plan.classes = workload->kernel_launches();
    plan.sequence.reserve(ref_queue.records().size());
    for (const synergy::LaunchRecord& record : ref_queue.records()) {
      const auto match = std::find_if(
          plan.classes.begin(), plan.classes.end(),
          [&](const core::KernelLaunch& launch) {
            return launch.profile.name == record.kernel_name &&
                   launch.work_items == record.work_items;
          });
      DSEM_ENSURE(match != plan.classes.end(),
                  "sched: launch of " + record.kernel_name +
                      " matches no launch class of its workload");
      plan.sequence.push_back(
          static_cast<std::uint32_t>(match - plan.classes.begin()));
    }

    if (model_driven) {
      // The model contributes the frequency *shape* (predicted speedup
      // and normalized energy, §4.2.3 — what the domain-specific family
      // is good at), anchored at the input's true default-clock reference
      // point so absolute-scale prediction bias cancels per input.
      plan.app = &apps.at(job.spec.application);
      const core::Prediction pred = plan.app->artifact->predict(
          job.request.features, plan.app->cand_freqs_mhz);
      plan.cand_time_s.reserve(pred.speedup.size());
      plan.cand_energy_j.reserve(pred.norm_energy.size());
      for (std::size_t k = 0; k < pred.speedup.size(); ++k) {
        DSEM_ENSURE(pred.speedup[k] > 0.0,
                    "sched: model predicted non-positive speedup");
        plan.cand_time_s.push_back(plan.ref_time_s / pred.speedup[k]);
        plan.cand_energy_j.push_back(plan.ref_energy_j *
                                     pred.norm_energy[k]);
      }
    }
  });

  // Phase 2 — sequential admission, placement, and execution in arrival
  // order. A job's execution replays its input's launch sequence: the
  // noise-free cost of each launch at the job's clock, measured under the
  // noise stream of a replica device seeded by the job's trace index. So
  // its true cost at a given clock is identical on every rank, under
  // every policy, for every pool size, and bit-identical to running the
  // workload on that replica.
  const sim::NoiseConfig noise = cluster_.device(0).simulated().noise();
  const auto costs_at = [&](InputPlan& plan,
                            double mhz) -> std::span<const sim::LaunchCost> {
    for (const ClockCosts& entry : plan.memo) {
      if (entry.mhz == mhz) {
        return entry.costs;
      }
    }
    ClockCosts& entry = plan.memo.emplace_back();
    entry.mhz = mhz;
    entry.costs.reserve(plan.classes.size());
    for (const core::KernelLaunch& launch : plan.classes) {
      entry.costs.push_back(
          sim::launch_cost(spec, launch.profile, launch.work_items, mhz));
    }
    return entry.costs;
  };

  std::vector<JobOutcome> outcomes(jobs.size());
  std::vector<double> rank_free_s(
      static_cast<std::size_t>(cluster_.size()), 0.0);
  std::vector<double> rank_busy_s(rank_free_s.size(), 0.0);

  // Ledger attribution for one finalized outcome (appended in arrival
  // order, so the ledger stream is deterministic like the outcomes).
  const auto record_job = [&](std::size_t i, const JobOutcome& outcome) {
    const serve::TimedJob& job = jobs[i];
    obs::JobRecord record;
    record.index = static_cast<std::uint64_t>(i);
    record.id = obs::derive_record_id("job", record.index);
    record.application = job.spec.application;
    if (model_driven) {
      record.model = plans[job_input[i]].app->label;
    }
    record.rank = outcome.rank;
    record.freq_mhz = outcome.freq_mhz;
    record.arrival_s = job.arrival_s;
    record.start_s = outcome.start_s;
    record.finish_s = outcome.finish_s;
    record.deadline_s = outcome.deadline_s;
    record.queue_wait_s =
        outcome.rejected ? 0.0 : outcome.start_s - job.arrival_s;
    record.predicted_time_s = outcome.predicted_time_s;
    record.predicted_energy_j = outcome.predicted_energy_j;
    record.true_time_s = outcome.true_time_s;
    record.true_energy_j = outcome.true_energy_j;
    if (model_driven && !outcome.rejected && outcome.true_time_s > 0.0 &&
        outcome.true_energy_j > 0.0) {
      record.time_residual =
          std::abs(outcome.predicted_time_s - outcome.true_time_s) /
          outcome.true_time_s;
      record.energy_residual =
          std::abs(outcome.predicted_energy_j - outcome.true_energy_j) /
          outcome.true_energy_j;
    }
    if (!outcome.rejected && outcome.deadline_s > job.arrival_s) {
      record.slack_consumed = (outcome.finish_s - job.arrival_s) /
                              (outcome.deadline_s - job.arrival_s);
    }
    record.infeasible = outcome.infeasible;
    record.rejected = outcome.rejected;
    record.missed = outcome.missed;
    // Miss-cause precedence (obs/ledger.hpp): infeasibility first, then
    // model error vs placement by whether the job would have missed even
    // starting at arrival. Baselines never consult a model, so a miss
    // the true runtime alone explains is an infeasible clock, not a
    // model error.
    if (outcome.missed) {
      if (outcome.infeasible) {
        record.cause = obs::MissCause::kInfeasible;
      } else if (job.arrival_s + outcome.true_time_s > outcome.deadline_s) {
        record.cause = model_driven ? obs::MissCause::kModelError
                                    : obs::MissCause::kInfeasible;
      } else {
        record.cause = obs::MissCause::kPlacement;
      }
    }
    ledger->add(std::move(record));
  };

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const serve::TimedJob& job = jobs[i];
    InputPlan& plan = plans[job_input[i]];
    JobOutcome& outcome = outcomes[i];
    outcome.deadline_s = job.arrival_s + job.deadline_slack * plan.ref_time_s;

    // Placement + clock choice.
    int rank = -1;
    FrequencyPick pick;
    if (model_driven && config_.placement == Placement::kEnergyGreedy) {
      // Best (rank, clock) pair: prefer feasibility, then predicted
      // energy, then earlier start, then lower rank.
      for (int r = 0; r < cluster_.size(); ++r) {
        const double start =
            std::max(job.arrival_s, rank_free_s[static_cast<std::size_t>(r)]);
        const FrequencyPick p = pick_deadline_frequency(
            plan.cand_time_s, plan.cand_energy_j, start, outcome.deadline_s,
            config_.margin);
        const bool better =
            rank < 0 ||
            (p.feasible && !pick.feasible) ||
            (p.feasible == pick.feasible &&
             plan.cand_energy_j[p.index] < plan.cand_energy_j[pick.index]);
        if (better) {
          rank = r;
          pick = p;
        }
      }
    } else {
      // First fit: earliest-available rank (baselines always use this —
      // without predictions there is no energy order to be greedy over).
      rank = place_first_fit(rank_free_s);
      if (model_driven) {
        const double start = std::max(
            job.arrival_s, rank_free_s[static_cast<std::size_t>(rank)]);
        pick = pick_deadline_frequency(plan.cand_time_s, plan.cand_energy_j,
                                       start, outcome.deadline_s,
                                       config_.margin);
      }
    }

    if (model_driven && !pick.feasible) {
      outcome.infeasible = true;
      ++stats_.infeasible;
      if (config_.fallback == Fallback::kReject) {
        outcome.rejected = true;
        outcome.missed = true;
        ++stats_.rejected;
        ++stats_.misses;
        if (ledger != nullptr) {
          record_job(i, outcome);
        }
        continue;
      }
    }

    const auto rank_index = static_cast<std::size_t>(rank);
    outcome.rank = rank;
    outcome.start_s = std::max(job.arrival_s, rank_free_s[rank_index]);
    if (model_driven) {
      outcome.freq_mhz = plan.app->cand_freqs_mhz[pick.index];
      outcome.predicted_time_s = plan.cand_time_s[pick.index];
      outcome.predicted_energy_j = plan.cand_energy_j[pick.index];
    } else {
      outcome.freq_mhz = rank_clock_mhz[rank_index];
    }

    // True execution: the clock a fresh replica runs at (the snapped
    // target, or its default clock), and that replica's noise stream.
    // Fault injection on the cluster devices stays confined to the
    // clock-broadcast path.
    const double mhz = outcome.freq_mhz > 0.0
                           ? spec.core_frequencies.snap(outcome.freq_mhz)
                           : default_mhz;
    const std::span<const sim::LaunchCost> cost = costs_at(plan, mhz);
    Rng rng(derive_seed(config_.seed, static_cast<std::uint64_t>(i)));
    for (const std::uint32_t k : plan.sequence) {
      const sim::LaunchCost reading = sim::measure_launch(cost[k], noise, rng);
      sim::check_reading(plan.classes[k].profile.name, reading.time_s,
                         reading.energy_j);
      outcome.true_time_s += reading.time_s;
      outcome.true_energy_j += reading.energy_j;
    }
    outcome.finish_s = outcome.start_s + outcome.true_time_s;
    outcome.missed = outcome.finish_s > outcome.deadline_s;

    rank_free_s[rank_index] = outcome.finish_s;
    rank_busy_s[rank_index] += outcome.true_time_s;
    stats_.busy_energy_j += outcome.true_energy_j;
    ++stats_.completed;
    if (outcome.missed) {
      ++stats_.misses;
    }
    stats_.makespan_s = std::max(stats_.makespan_s, outcome.finish_s);
    metrics::histogram("sched.turnaround_s",
                       outcome.finish_s - job.arrival_s);
    if (ledger != nullptr) {
      record_job(i, outcome);
    }
  }

  // Every job is either completed or rejected — the ledger's
  // reconciliation guarantee starts here.
  DSEM_ENSURE(stats_.completed + stats_.rejected == stats_.jobs,
              "sched: completed + rejected must equal jobs");

  // Idle draw closes the cluster energy account: every rank burns its
  // standing-clock idle power over its gaps up to the makespan.
  for (std::size_t r = 0; r < rank_free_s.size(); ++r) {
    const double idle_mhz =
        rank_clock_mhz[r] > 0.0 ? rank_clock_mhz[r] : default_mhz;
    const double idle_s = stats_.makespan_s - rank_busy_s[r];
    stats_.idle_energy_j += sim::idle_power_w(spec, idle_mhz) * idle_s;
  }
  stats_.energy_j = stats_.busy_energy_j + stats_.idle_energy_j;

  if (config_.frequency == FrequencyPolicy::kMaxClock) {
    cluster_.reset_frequency_all();
  }

  metrics::counter("sched.jobs", stats_.jobs);
  metrics::counter("sched.plans", plans.size());
  metrics::counter("sched.completed", stats_.completed);
  metrics::counter("sched.rejected", stats_.rejected);
  metrics::counter("sched.misses", stats_.misses);
  metrics::counter("sched.infeasible", stats_.infeasible);
  metrics::counter("sched.clock_rejections", stats_.clock_rejections);
  metrics::gauge("sched.energy_j", stats_.energy_j,
                 metrics::Reliability::kDeterministic);
  metrics::gauge("sched.busy_energy_j", stats_.busy_energy_j,
                 metrics::Reliability::kDeterministic);
  metrics::gauge("sched.idle_energy_j", stats_.idle_energy_j,
                 metrics::Reliability::kDeterministic);
  metrics::gauge("sched.makespan_s", stats_.makespan_s,
                 metrics::Reliability::kDeterministic);

  stats_.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  return outcomes;
}

} // namespace dsem::sched
