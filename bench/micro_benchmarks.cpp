// Microbenchmarks (google-benchmark) for the framework's hot paths:
// budgeter solves, simulator steps, quadratic fitting, the endpoint
// mailbox, MSR encode/decode, the agent tree reduce, and the telemetry
// primitives that sit on the control hot path.
#include <benchmark/benchmark.h>

#include <optional>

#include "budget/budgeter.hpp"
#include "geopm/comm_tree.hpp"
#include "geopm/controller.hpp"
#include "geopm/endpoint.hpp"
#include "model/default_models.hpp"
#include "platform/msr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/poly_fit.hpp"
#include "util/rng.hpp"
#include "workload/job_type.hpp"

namespace {

using namespace anor;

std::vector<budget::JobPowerProfile> make_profiles(int count) {
  std::vector<budget::JobPowerProfile> jobs;
  const auto& types = workload::nas_job_types();
  for (int i = 0; i < count; ++i) {
    budget::JobPowerProfile profile;
    profile.job_id = i;
    profile.nodes = 2;
    profile.model =
        model::PowerPerfModel::from_job_type(types[static_cast<std::size_t>(i) % types.size()]);
    jobs.push_back(std::move(profile));
  }
  return jobs;
}

void BM_EvenPowerBudgeter(benchmark::State& state) {
  const auto jobs = make_profiles(static_cast<int>(state.range(0)));
  const auto budgeter = budget::instrument_budgeter(budget::even_power_factory()());
  const double budget = 0.6 * budget::total_max_power_w(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(budgeter->distribute(jobs, budget));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvenPowerBudgeter)->Arg(8)->Arg(64)->Arg(512);

void BM_EvenSlowdownBudgeter(benchmark::State& state) {
  const auto jobs = make_profiles(static_cast<int>(state.range(0)));
  const auto budgeter = budget::instrument_budgeter(budget::even_slowdown_factory()());
  const double budget = 0.6 * budget::total_max_power_w(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(budgeter->distribute(jobs, budget));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvenSlowdownBudgeter)->Arg(8)->Arg(64)->Arg(512);

void BM_QuadraticFit(benchmark::State& state) {
  util::Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.5, 1.0);
    y[i] = 2.0 - x[i] + 0.2 * x[i] * x[i] + rng.normal(0.0, 0.01);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::polyfit(x, y, 2));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuadraticFit)->Arg(16)->Arg(128)->Arg(1024);

void BM_EndpointMailboxRoundTrip(benchmark::State& state) {
  geopm::Endpoint endpoint(128);
  geopm::Sample sample;
  sample.fill(1.0);
  std::vector<geopm::TimedSample> drained;
  double t = 0.0;
  for (auto _ : state) {
    endpoint.write_sample(t, sample);
    benchmark::DoNotOptimize(endpoint.read_samples(drained));
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndpointMailboxRoundTrip);

void BM_MsrEncodeDecode(benchmark::State& state) {
  const platform::RaplUnits units;
  platform::PkgPowerLimit limit;
  limit.power_limit_w = 112.5;
  for (auto _ : state) {
    const auto raw = limit.encode(units);
    benchmark::DoNotOptimize(platform::PkgPowerLimit::decode(raw, units));
  }
}
BENCHMARK(BM_MsrEncodeDecode);

void BM_SimulatorStep(benchmark::State& state) {
  sim::SimConfig config;
  config.node_count = static_cast<int>(state.range(0));
  config.duration_s = 7200.0;  // the schedule's horizon
  config.job_types = sim::standard_sim_types(true, 1);

  util::Rng rng(1);
  workload::PoissonScheduleConfig sc;
  sc.duration_s = config.duration_s;
  sc.utilization = 0.75;
  sc.cluster_nodes = config.node_count;
  std::vector<workload::JobType> types;
  for (const auto& t : workload::nas_long_job_types()) types.push_back(t);
  const auto schedule = workload::generate_poisson_schedule(types, sc, rng);
  const util::Rng sim_rng = rng.child("sim");
  sim::set_bid_targets(config, {config.node_count * 150.0, config.node_count * 18.0}, sim_rng);
  std::optional<sim::TabularSimulator> simulator;
  simulator.emplace(config, schedule, sim_rng);
  for (auto _ : state) {
    const bool more = simulator->step();
    benchmark::DoNotOptimize(more);
    if (!more) {
      // The run is over: start the next one outside the timed region.
      state.PauseTiming();
      simulator.emplace(config, schedule, sim_rng);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorStep)->Arg(100)->Arg(1000);

void BM_AgentTreeReduce(benchmark::State& state) {
  const int node_count = static_cast<int>(state.range(0));
  util::VirtualClock clock;
  platform::NodeConfig node_config;
  node_config.package.response_tau_s = 0.0;
  std::vector<std::unique_ptr<platform::Node>> nodes;
  std::vector<std::unique_ptr<geopm::PlatformIO>> pios;
  std::vector<std::unique_ptr<geopm::PowerGovernorAgent>> agents;
  std::vector<geopm::Agent*> agent_ptrs;
  for (int i = 0; i < node_count; ++i) {
    nodes.push_back(std::make_unique<platform::Node>(i, node_config));
    pios.push_back(std::make_unique<geopm::PlatformIO>(*nodes.back(), clock));
    agents.push_back(std::make_unique<geopm::PowerGovernorAgent>(*pios.back()));
    agent_ptrs.push_back(agents.back().get());
  }
  geopm::AgentTree tree(geopm::TreeTopology{node_count, 4}, agent_ptrs);
  for (auto _ : state) {
    clock.advance(0.5);
    for (auto& n : nodes) n->step(0.5);
    benchmark::DoNotOptimize(tree.reduce_samples());
  }
  state.SetItemsProcessed(state.iterations() * node_count);
}
BENCHMARK(BM_AgentTreeReduce)->Arg(4)->Arg(16)->Arg(64);

// Acceptance bound for the telemetry tentpole: a counter update must stay
// in the tens of nanoseconds so instrumented MSR accesses and control
// steps are unaffected.
void BM_MetricsCounterInc(benchmark::State& state) {
  auto& counter = telemetry::MetricsRegistry::global().counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsGaugeSet(benchmark::State& state) {
  auto& gauge = telemetry::MetricsRegistry::global().gauge("bench.gauge");
  double v = 0.0;
  for (auto _ : state) {
    gauge.set(v);
    v += 1.0;
  }
  benchmark::DoNotOptimize(gauge.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsGaugeSet);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  auto& histogram = telemetry::MetricsRegistry::global().histogram(
      "bench.histogram", telemetry::exponential_bounds(1.0, 2.0, 12));
  double v = 0.5;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 4000.0 ? v * 1.7 : 0.5;
  }
  benchmark::DoNotOptimize(histogram.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_TraceInstant(benchmark::State& state) {
  telemetry::TraceRecorder recorder(1 << 12);
  double t = 0.0;
  for (auto _ : state) {
    recorder.instant("bench.event", "bench", t);
    t += 1.0;
  }
  benchmark::DoNotOptimize(recorder.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInstant);

}  // namespace
