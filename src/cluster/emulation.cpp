#include "cluster/emulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "model/default_models.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace anor::cluster {

double uncapped_runtime_s(const workload::JobType& type,
                          const workload::KernelConfig& kernel) {
  return kernel.setup_s + kernel.teardown_s +
         type.min_exec_time_s() * kernel.perf_multiplier;
}

EmulatedCluster::EmulatedCluster(EmulationConfig config, workload::Schedule schedule)
    : config_(config),
      schedule_(std::move(schedule)),
      rng_(config.seed),
      scheduler_([&] {
        sched::SchedulerConfig sc = config.scheduler;
        sc.cluster_nodes = config.node_count;
        if (sc.backfill && !sc.runtime_estimate) {
          const workload::KernelConfig kernel = config.controller.kernel;
          sc.runtime_estimate = [kernel](const std::string& name) {
            if (const auto type = workload::try_find_job_type(name)) {
              return uncapped_runtime_s(*type, kernel);
            }
            return 600.0;
          };
        }
        return sc;
      }()),
      manager_([&] {
        ClusterManagerConfig mc = config.manager;
        mc.cluster_nodes = config.node_count;
        return mc;
      }()) {
  platform::ClusterHwConfig hw_config;
  hw_config.node_count = config_.node_count;
  hw_config.node = config_.node;
  hw_config.perf_variation_sigma = config_.perf_variation_sigma;
  hw_ = std::make_unique<platform::ClusterHw>(hw_config, rng_.child("hw"));
  for (int n = 0; n < config_.node_count; ++n) free_nodes_.insert(n);

  std::sort(schedule_.jobs.begin(), schedule_.jobs.end(),
            [](const workload::JobRequest& a, const workload::JobRequest& b) {
              return a.submit_time_s < b.submit_time_s;
            });
  result_.qos = sched::QosEvaluator(config_.qos);
  result_.completed.reserve(schedule_.jobs.size());
  result_.qos.reserve(schedule_.jobs.size());
}

void EmulatedCluster::set_power_targets(util::TimeSeries targets) {
  manager_.set_power_targets(std::move(targets));
}

double EmulatedCluster::min_feasible_power_w() const {
  double total = static_cast<double>(free_nodes_.size()) * config_.manager.idle_node_power_w;
  for (const auto& job : running_) {
    total += job->request.nodes * hw_->node(0).min_cap_w();
  }
  return total;
}

double EmulatedCluster::max_feasible_power_w() const {
  double total = static_cast<double>(free_nodes_.size()) * config_.manager.idle_node_power_w;
  for (const auto& job : running_) {
    total += job->request.nodes * job->controller->type().max_power_w;
  }
  return total;
}

sched::SchedulerView EmulatedCluster::make_view() const {
  sched::SchedulerView view;
  view.free_nodes = static_cast<int>(free_nodes_.size());
  const auto target = manager_.target_at(clock_.now());
  view.power_target_w = target.value_or(0.0);
  const double floor_cap = hw_->node(0).min_cap_w();
  const double idle_power = config_.manager.idle_node_power_w;
  const int busy = config_.node_count - view.free_nodes;
  view.min_feasible_power_w = busy * floor_cap + view.free_nodes * idle_power;
  view.per_node_floor_increase_w = floor_cap - idle_power;
  view.now_s = clock_.now();
  if (config_.scheduler.backfill) {
    for (const auto& job : running_) {
      // The controller keeps the job's true type from its start.
      const workload::JobType& type = job->controller->type();
      // Project the release from the exec time the current cap implies.
      const double projected_end =
          job->controller->start_time_s() +
          uncapped_runtime_s(type, config_.controller.kernel) *
              type.relative_time(job->controller->current_cap_w());
      view.projected_releases.emplace_back(std::max(projected_end, clock_.now()),
                                           job->request.nodes);
    }
  }
  return view;
}

void EmulatedCluster::admit_arrivals() {
  const double now = clock_.now();
  while (next_arrival_ < schedule_.jobs.size() &&
         schedule_.jobs[next_arrival_].submit_time_s <= now) {
    workload::JobRequest request = schedule_.jobs[next_arrival_];
    if (request.nodes <= 0) {
      request.nodes = workload::find_job_type(request.type_name).nodes;
    }
    queued_[request.job_id] = request;
    scheduler_.submit(request, now);
    ++next_arrival_;
  }
}

void EmulatedCluster::make_endpoint(RunningJob& job) {
  const workload::JobRequest& request = job.request;
  InprocPair pair = make_inproc_pair(clock_, config_.inproc_latency_s);
  std::unique_ptr<MessageChannel> manager_side = std::move(pair.a);
  std::unique_ptr<MessageChannel> endpoint_side = std::move(pair.b);
  if (channel_decorator_) {
    manager_side = channel_decorator_(std::move(manager_side), request.job_id, true);
    endpoint_side = channel_decorator_(std::move(endpoint_side), request.job_id, false);
  }
  manager_.attach_channel(std::move(manager_side));
  job.endpoint_channel = std::move(endpoint_side);

  // The endpoint process starts from the *classified* model — what the
  // batch system believes the job is.
  const std::string& classified = request.effective_class();
  model::PowerPerfModel initial_model;
  if (workload::try_find_job_type(classified)) {
    initial_model = model::model_for_class(classified);
  } else {
    initial_model = model::default_model(config_.manager.default_model);
  }
  job.endpoint = std::make_unique<JobEndpointProcess>(
      request.job_id, request.type_name + "#" + std::to_string(request.job_id), classified,
      request.nodes, std::move(initial_model), job.controller->endpoint(),
      *job.endpoint_channel, clock_.now(), config_.endpoint,
      job.controller->current_cap_w());
}

void EmulatedCluster::start_jobs() {
  const std::vector<workload::JobRequest> to_start = scheduler_.schedule(make_view());
  for (const workload::JobRequest& request : to_start) {
    queued_.erase(request.job_id);
    auto job = std::make_unique<RunningJob>();
    job->request = request;

    std::vector<platform::Node*> nodes;
    for (int k = 0; k < request.nodes; ++k) {
      if (free_nodes_.empty()) {
        throw util::ConfigError("EmulatedCluster: scheduler oversubscribed nodes");
      }
      const int node_id = *free_nodes_.begin();
      free_nodes_.erase(free_nodes_.begin());
      job->node_ids.push_back(node_id);
      nodes.push_back(&hw_->node(node_id));
    }

    const workload::JobType& true_type = workload::find_job_type(request.type_name);
    geopm::ControllerConfig controller_config = config_.controller;
    const auto phases_it = config_.phase_overrides.find(request.type_name);
    if (phases_it != config_.phase_overrides.end()) {
      controller_config.phases = phases_it->second;
    }
    job->controller = std::make_unique<geopm::JobController>(
        request.type_name + "#" + std::to_string(request.job_id), true_type,
        std::move(nodes), clock_,
        rng_.child(static_cast<std::uint64_t>(request.job_id) + 1000), controller_config);

    make_endpoint(*job);
    running_.push_back(std::move(job));
  }
}

bool EmulatedCluster::crash_job_endpoint(int job_id) {
  for (auto& job : running_) {
    if (job->request.job_id != job_id || !job->endpoint) continue;
    // No goodbye: the process just dies.  Destroying the endpoint-side
    // channel closes the pipe pair, so the manager sees a disconnect; the
    // job record itself lingers until the liveness lease reaps it.
    job->endpoint.reset();
    job->endpoint_channel.reset();
    util::log_warn("emulation", "job " + std::to_string(job_id) + ": endpoint crashed");
    telemetry::TraceRecorder::global().instant("endpoint_crash", "fault", clock_.now(),
                                               static_cast<double>(job_id));
    return true;
  }
  return false;
}

bool EmulatedCluster::restart_job_endpoint(int job_id) {
  for (auto& job : running_) {
    if (job->request.job_id != job_id || job->endpoint) continue;
    make_endpoint(*job);
    util::log_info("emulation", "job " + std::to_string(job_id) + ": endpoint restarted");
    telemetry::TraceRecorder::global().instant("endpoint_restart", "fault", clock_.now(),
                                               static_cast<double>(job_id));
    return true;
  }
  return false;
}

std::vector<int> EmulatedCluster::running_job_ids() const {
  std::vector<int> ids;
  ids.reserve(running_.size());
  for (const auto& job : running_) ids.push_back(job->request.job_id);
  return ids;
}

JobEndpointProcess* EmulatedCluster::endpoint(int job_id) {
  for (auto& job : running_) {
    if (job->request.job_id == job_id) return job->endpoint.get();
  }
  return nullptr;
}

void EmulatedCluster::finish_completed_jobs() {
  const double now = clock_.now();
  for (auto it = running_.begin(); it != running_.end();) {
    RunningJob& job = **it;
    if (!job.controller->complete()) {
      ++it;
      continue;
    }
    job.controller->teardown(now);
    // The goodbye survives the endpoint's destruction: the channel pipes
    // are shared, so the manager drains it on a later step.  A crashed
    // endpoint has no goodbye to send; the lease reaps it instead.
    if (job.endpoint) job.endpoint->finish(now);

    CompletedJob record;
    record.request = job.request;
    record.report = job.controller->report();
    record.submit_s = job.request.submit_time_s;
    record.start_s = job.controller->start_time_s();
    record.end_s = now;
    record.reference_runtime_s =
        uncapped_runtime_s(job.controller->type(), config_.controller.kernel);
    result_.completed.push_back(record);

    sched::JobQosRecord qos_record;
    qos_record.job_id = job.request.job_id;
    qos_record.type_name = job.request.type_name;
    qos_record.submit_s = record.submit_s;
    qos_record.start_s = record.start_s;
    qos_record.end_s = record.end_s;
    qos_record.t_min_s = record.reference_runtime_s;
    result_.qos.add(std::move(qos_record));

    scheduler_.job_finished(job.request.type_name, job.request.nodes);
    for (int node_id : job.node_ids) free_nodes_.insert(node_id);
    it = running_.erase(it);
  }
}

void EmulatedCluster::sample_log(double now_s) {
  auto& registry = telemetry::MetricsRegistry::global();
  static auto& power = registry.gauge("cluster.power_w");
  static auto& target_gauge = registry.gauge("cluster.target_w");
  static auto& running = registry.gauge("cluster.running_jobs");
  static auto& free_nodes = registry.gauge("cluster.free_nodes");
  const double measured = hw_->total_power_w();
  result_.power_w.add(now_s, measured);
  power.set(measured);
  running.set(static_cast<double>(running_.size()));
  free_nodes.set(static_cast<double>(free_nodes_.size()));
  auto& tracer = telemetry::TraceRecorder::global();
  tracer.counter("cluster.power_w", "cluster", now_s, measured);
  if (const auto target = manager_.target_at(now_s)) {
    result_.target_w.add(now_s, *target);
    target_gauge.set(*target);
    tracer.counter("cluster.target_w", "cluster", now_s, *target);
  }
  if (artifacts_ != nullptr) artifacts_->maybe_sample(now_s);
}

void EmulatedCluster::build_engine() {
  // Component order is the determinism contract: hardware advances, then
  // arrivals/completions/scheduling, the fault hook, the per-job control
  // stack, the head-node manager, and last the log sampler — exactly the
  // sequence the hand-rolled loop ran.  The engine advances the clock
  // before dispatching (kAdvanceFirst), as `clock_.advance(dt)` did.
  engine_ = std::make_unique<engine::DiscreteEngine>(
      config_.step_s, engine::DiscreteEngine::ClockMode::kAdvanceFirst);
  engine_->bind_clock(&clock_);
  engine_->add_component("hardware", 0.0, [this](double, double dt) { hw_->step(dt); });
  engine_->add_component("admit_arrivals", 0.0,
                         [this](double, double) { admit_arrivals(); });
  engine_->add_component("complete_jobs", 0.0,
                         [this](double, double) { finish_completed_jobs(); });
  engine_->add_component("scheduler", 0.0, [this](double, double) { start_jobs(); });
  engine_->add_component("step_hook", 0.0, [this](double now, double) {
    if (step_hook_) step_hook_(*this, now);
  });
  engine_->add_component("job_control", 0.0, [this](double now, double dt) {
    busy_node_seconds_ +=
        static_cast<double>(config_.node_count - static_cast<int>(free_nodes_.size())) * dt;
    for (auto& job : running_) {
      job->controller->control_step(now);
      if (job->endpoint) job->endpoint->step(now);
    }
  });
  engine_->add_component("manager", 0.0, [this](double now, double) {
    // Facility metering: the head node sees the cluster's CPU power.
    manager_.report_measured_power(now, hw_->total_power_w());
    manager_.step(now);
  });
  engine_->add_component("log_sampler", config_.log_period_s,
                         [this](double now, double) { sample_log(now); });
  engine_->set_stop_predicate([this](double now) {
    const bool drained = next_arrival_ >= schedule_.jobs.size() && running_.empty() &&
                         !scheduler_.has_pending();
    return drained || now >= config_.max_duration_s;
  });
}

bool EmulatedCluster::step() {
  if (done_) return false;
  // Trace events and log lines recorded anywhere in the control stack
  // pick up this run's virtual timeline, on this thread only: runs on
  // other run workers keep their own.  Bound per step, so a pre-run move
  // of the cluster object cannot leave a binding dangling.
  const util::ScopedThreadClock bind_clock(&clock_);
  if (engine_ == nullptr) build_engine();
  engine_->step();
  done_ = engine_->stopped();
  return !done_;
}

EmulationResult EmulatedCluster::run() {
  if (result_taken_) {
    throw std::logic_error("EmulatedCluster::run: the result was already handed over");
  }
  while (step()) {
  }
  result_.end_time_s = clock_.now();
  result_.jobs_submitted = static_cast<int>(schedule_.jobs.size());
  result_.jobs_completed = static_cast<int>(result_.completed.size());
  const double elapsed = std::max(clock_.now(), config_.step_s);
  result_.mean_utilization =
      busy_node_seconds_ / (elapsed * static_cast<double>(config_.node_count));
  // Zero reserve derives half the observed target span — the emulation's
  // historical normalization.
  engine::finalize_tracking(result_, 0.0, 0.0);
  result_taken_ = true;
  return std::move(result_);
}

}  // namespace anor::cluster
