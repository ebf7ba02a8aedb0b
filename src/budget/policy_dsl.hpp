// Expression DSL for scripted power policies (DESIGN.md 6j).
//
// A policy expression computes one per-node power cap (watts) for each
// running job, evaluated against the job's fitted T = A·P² + B·P + C
// model terms and the cluster-level budgeting context.  The language is
// deliberately tiny — arithmetic, a few math builtins, and the model's
// inverse helpers — so an expression is data: it ships inside a
// ScenarioSpec / sweep grid as a string, hashes into the result-cache
// key, and cannot reach the filesystem, the clock, or random state.
//
// Grammar (precedence low → high):
//
//   expr    := term (('+' | '-') term)*
//   term    := factor (('*' | '/') factor)*
//   factor  := '-' factor | power             // unary minus binds looser
//   power   := primary ('^' factor)?          // than '^': -2^2 == -(2^2)
//   primary := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'
//
// Variables (per evaluation):
//   a, b, c           — fitted model coefficients (T(P) = a·P² + b·P + c)
//   p_min, p_max      — the job's achievable cap range, watts
//   nodes             — nodes held by this job
//   max_slowdown      — the model's slowdown at p_min
//   jobs              — number of running jobs being budgeted
//   budget_w          — cluster budget over the jobs' nodes, watts
//   total_nodes       — sum of nodes over all running jobs
//   fair_w            — budget_w / total_nodes (0 when no nodes)
//
// Functions:
//   min(x,y)  max(x,y)  clamp(x,lo,hi)  abs(x)  sqrt(x)  pow(x,y)
//   floor(x)  ceil(x)
//   time_at(cap)          — model seconds-per-epoch at a cap
//   cap_for_time(t)       — model inverse: smallest cap with T <= t
//   cap_for_slowdown(s)   — cap at relative slowdown s
//   noise()               — NON-DETERMINISTIC test hook (process-global
//                           counter); admission MUST reject any policy
//                           using it.  Exists so the admission harness's
//                           rejection path is testable.
//
// Division by zero, domain errors (sqrt of a negative), and pow overflow
// evaluate to 0 rather than NaN/Inf, and the budgeter clamps non-finite
// results to p_min,
// so a degenerate expression degrades to a throttled-but-valid cap
// instead of poisoning the run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/perf_model.hpp"

namespace anor::budget {

/// Everything one cap evaluation may read.
struct DslContext {
  const model::PowerPerfModel* model = nullptr;  // for a/b/c and model fns
  double nodes = 1.0;
  double jobs = 1.0;
  double budget_w = 0.0;
  double total_nodes = 1.0;
  double fair_w = 0.0;
};

namespace dsl_detail {

/// One postfix program step.  kPush pushes `value`; kVar pushes the
/// context slot at `slot`; everything else pops its operands and pushes
/// one result.
enum class Op : std::uint8_t {
  kPush, kVar, kNeg, kAdd, kSub, kMul, kDiv, kPow,
  kMin, kMax, kClamp, kAbs, kSqrt, kFloor, kCeil,
  kTimeAt, kCapForTime, kCapForSlowdown, kNoise,
};

struct Instr {
  Op op = Op::kPush;
  double value = 0.0;
  int slot = 0;
};

}  // namespace dsl_detail

/// A parsed policy expression: compiled once, evaluated per job per
/// control interval.  Immutable after parse; eval() is const and
/// thread-safe.
class DslExpr {
 public:
  /// Parse `source`; throws util::ConfigError with the offending position
  /// on syntax errors, unknown identifiers, or arity mismatches.
  static DslExpr parse(const std::string& source);

  double eval(const DslContext& ctx) const;

  /// True when the expression calls the non-deterministic noise() hook —
  /// the admission harness refuses such policies up front.
  bool uses_noise() const { return uses_noise_; }

  const std::string& source() const { return source_; }

 private:
  DslExpr() = default;

  std::string source_;
  std::vector<dsl_detail::Instr> program_;
  bool uses_noise_ = false;
};

/// FNV-1a 64 of an expression's source bytes — the policy-identity hash
/// folded into sweep cache keys (spec_canon) and registry identities.
std::uint64_t dsl_source_hash(const std::string& source);

/// The documented non-deterministic value behind noise(): a process-wide
/// monotone counter scrambled to [0, 1).  Never use outside tests.
double dsl_noise();

}  // namespace anor::budget
