// Determinism guarantees of the parallel runtime: for every executor
// width (serial, 1, 2, 8 threads), N-way direct comparison, cross
// comparison, the pairwise pipeline, both resolution methods, and batch
// classification must return results *identical* to the serial path —
// same discrepancies and rules, in the same order, with the same counts.
// So must a session's const calls made from several threads at once.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "diverse/workflow.hpp"
#include "engine/classifier.hpp"
#include "engine/trace.hpp"
#include "fdd/compare.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"

namespace dfw {
namespace {

constexpr std::size_t kThreadWidths[] = {1, 2, 8};

std::vector<Policy> make_teams(std::size_t teams, std::size_t rules,
                               std::uint64_t seed) {
  SynthConfig config;
  config.num_rules = rules;
  Rng rng(seed);
  std::vector<Policy> policies;
  policies.push_back(synth_policy(config, rng));
  for (std::size_t i = 1; i < teams; ++i) {
    policies.push_back(perturb_policy(policies.front(), 15.0, rng));
  }
  return policies;
}

DiverseDesign make_session(const std::vector<Policy>& teams,
                           const WorkflowOptions& options) {
  DiverseDesign session(DecisionSet(), options);
  for (std::size_t i = 0; i < teams.size(); ++i) {
    std::string name = "t";
    name += std::to_string(i);
    session.submit(std::move(name), teams[i]);
  }
  return session;
}

TEST(ParallelDeterminismTest, DirectNWayComparisonMatchesSerial) {
  const std::vector<Policy> teams = make_teams(6, 60, 7);
  const std::vector<Discrepancy> serial =
      make_session(teams, WorkflowOptions{}).compare();
  ASSERT_FALSE(serial.empty());
  for (const std::size_t width : kThreadWidths) {
    Executor pool(width);
    WorkflowOptions options;
    options.run.executor = &pool;
    EXPECT_EQ(make_session(teams, options).compare(), serial)
        << "width " << width;
  }
}

TEST(ParallelDeterminismTest, CrossComparisonMatchesSerial) {
  const std::vector<Policy> teams = make_teams(6, 50, 11);
  const std::vector<PairwiseReport> serial =
      make_session(teams, WorkflowOptions{}).cross_compare();
  ASSERT_EQ(serial.size(), 6u * 5u / 2u);
  for (const std::size_t width : kThreadWidths) {
    Executor pool(width);
    WorkflowOptions options;
    options.run.executor = &pool;
    EXPECT_EQ(make_session(teams, options).cross_compare(), serial)
        << "width " << width;
  }
}

TEST(ParallelDeterminismTest, PairwisePipelineMatchesSerial) {
  const std::vector<Policy> teams = make_teams(2, 80, 23);
  const std::vector<Discrepancy> serial =
      discrepancies(teams[0], teams[1]);
  for (const std::size_t width : kThreadWidths) {
    Executor pool(width);
    CompareOptions options;
    options.run.executor = &pool;
    EXPECT_EQ(discrepancies(teams[0], teams[1], options), serial)
        << "width " << width;
  }
}

TEST(ParallelDeterminismTest, ResolutionMatchesSerial) {
  const std::vector<Policy> teams = make_teams(4, 60, 31);
  const DiverseDesign serial_session = make_session(teams, WorkflowOptions{});
  const ResolutionPlan plan = plan_by_majority(serial_session.compare(), 1);
  ASSERT_FALSE(plan.empty());
  for (const ResolutionMethod method :
       {ResolutionMethod::kCorrectedFdd, ResolutionMethod::kPrependAndTrim}) {
    const Policy serial = serial_session.resolve(plan, method, 2);
    for (const std::size_t width : kThreadWidths) {
      Executor pool(width);
      WorkflowOptions options;
      options.run.executor = &pool;
      EXPECT_EQ(make_session(teams, options).resolve(plan, method, 2).rules(),
                serial.rules())
          << "width " << width;
    }
  }
}

TEST(ParallelDeterminismTest, ConcurrentConstCallsMatchSerial) {
  const std::vector<Policy> teams = make_teams(4, 40, 17);
  const DiverseDesign serial = make_session(teams, WorkflowOptions{});
  const std::vector<Discrepancy> compared = serial.compare();
  const std::string report = serial.report();
  const ResolutionPlan plan = plan_by_majority(compared, 0);
  const std::vector<Rule> resolved = serial.resolve(plan).rules();
  const std::vector<PairwiseReport> cross = serial.cross_compare();

  // Nothing is compared yet, so the threads also race to the first
  // comparison the session keeps.
  const DiverseDesign shared = make_session(teams, WorkflowOptions{});
  constexpr std::size_t kThreads = 4;
  std::array<bool, kThreads> ok{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool all_equal = true;
      for (std::size_t step = 0; step < 8; ++step) {
        switch ((t + step) % 4) {
          case 0:
            all_equal = all_equal && shared.compare() == compared;
            break;
          case 1:
            all_equal = all_equal && shared.report() == report;
            break;
          case 2:
            all_equal = all_equal && shared.resolve(plan).rules() == resolved;
            break;
          case 3:
            all_equal = all_equal && shared.cross_compare() == cross;
            break;
        }
      }
      ok[t] = all_equal;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t;
  }
}

TEST(ParallelDeterminismTest, ClassifyBatchMatchesSerialLoop) {
  const std::vector<Policy> teams = make_teams(1, 80, 42);
  const Policy& policy = teams.front();
  Rng rng(99);
  const std::vector<Packet> trace = synth_trace(policy, 4000, rng);

  const Classifier serial_classifier = Classifier::compile(policy);
  std::vector<Decision> expected;
  expected.reserve(trace.size());
  for (const Packet& p : trace) {
    expected.push_back(serial_classifier.classify(p));
  }
  // Serial batch (no executor configured) equals the classify loop.
  EXPECT_EQ(serial_classifier.classify_batch(trace), expected);

  for (const std::size_t width : kThreadWidths) {
    Executor pool(width);
    CompileOptions options;
    options.run.executor = &pool;
    options.batch_grain = 128;  // several chunks per worker
    const Classifier c = Classifier::compile(policy, options);
    EXPECT_EQ(c.classify_batch(trace), expected) << "width " << width;
    // Per-call RunOptions override on a serially-compiled classifier.
    RunOptions per_call;
    per_call.executor = &pool;
    EXPECT_EQ(serial_classifier.classify_batch(trace, per_call), expected)
        << "width " << width;
  }
}

TEST(ParallelDeterminismTest, EvaluateTraceSpanShimsAgree) {
  const std::vector<Policy> teams = make_teams(1, 40, 5);
  const Policy& policy = teams.front();
  Rng rng(6);
  const std::vector<Packet> trace = synth_trace(policy, 1000, rng);
  const TraceStats from_vector = evaluate_trace(policy, trace);
  const TraceStats from_span =
      evaluate_trace(policy, std::span<const Packet>(trace));
  EXPECT_EQ(from_vector.rule_hits, from_span.rule_hits);
  EXPECT_EQ(from_vector.decision_hits, from_span.decision_hits);
  EXPECT_EQ(from_vector.packets, from_span.packets);
}

}  // namespace
}  // namespace dfw
