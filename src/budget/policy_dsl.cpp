#include "budget/policy_dsl.hpp"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstddef>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace anor::budget {

namespace {

using dsl_detail::Instr;
using dsl_detail::Op;

/// Context variable slots, addressed by kVar's `slot`.
enum Slot : int {
  kSlotA, kSlotB, kSlotC, kSlotPMin, kSlotPMax, kSlotNodes, kSlotMaxSlowdown,
  kSlotJobs, kSlotBudgetW, kSlotTotalNodes, kSlotFairW,
  kSlotCount,
};

struct VarEntry {
  const char* name;
  int slot;
};

constexpr VarEntry kVars[] = {
    {"a", kSlotA},
    {"b", kSlotB},
    {"c", kSlotC},
    {"p_min", kSlotPMin},
    {"p_max", kSlotPMax},
    {"nodes", kSlotNodes},
    {"max_slowdown", kSlotMaxSlowdown},
    {"jobs", kSlotJobs},
    {"budget_w", kSlotBudgetW},
    {"total_nodes", kSlotTotalNodes},
    {"fair_w", kSlotFairW},
};

struct FnEntry {
  const char* name;
  Op op;
  int arity;
};

constexpr FnEntry kFns[] = {
    {"min", Op::kMin, 2},
    {"max", Op::kMax, 2},
    {"clamp", Op::kClamp, 3},
    {"abs", Op::kAbs, 1},
    {"sqrt", Op::kSqrt, 1},
    {"pow", Op::kPow, 2},
    {"floor", Op::kFloor, 1},
    {"ceil", Op::kCeil, 1},
    {"time_at", Op::kTimeAt, 1},
    {"cap_for_time", Op::kCapForTime, 1},
    {"cap_for_slowdown", Op::kCapForSlowdown, 1},
    {"noise", Op::kNoise, 0},
};

std::string known_names() {
  std::string out;
  for (const VarEntry& v : kVars) {
    if (!out.empty()) out += " ";
    out += v.name;
  }
  for (const FnEntry& f : kFns) {
    out += " ";
    out += f.name;
    out += "()";
  }
  return out;
}

[[noreturn]] void fail(const std::string& source, std::size_t pos, const std::string& what) {
  throw util::ConfigError("policy expression: " + what + " at position " +
                          std::to_string(pos) + " in \"" + source + "\"");
}

/// Recursive-descent parser emitting a postfix program.
class Parser {
 public:
  Parser(const std::string& source, std::vector<Instr>& program, bool& uses_noise)
      : source_(source), program_(program), uses_noise_(uses_noise) {}

  void run() {
    parse_expr();
    skip_ws();
    if (pos_ != source_.size()) fail(source_, pos_, "unexpected trailing input");
    if (program_.empty()) fail(source_, 0, "empty expression");
  }

 private:
  void skip_ws() {
    while (pos_ < source_.size() && std::isspace(static_cast<unsigned char>(source_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < source_.size() && source_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < source_.size() ? source_[pos_] : '\0';
  }

  void parse_expr() {
    parse_term();
    while (true) {
      const char c = peek();
      if (c == '+' || c == '-') {
        ++pos_;
        parse_term();
        program_.push_back({c == '+' ? Op::kAdd : Op::kSub, 0.0, 0});
      } else {
        return;
      }
    }
  }

  void parse_term() {
    parse_factor();
    while (true) {
      const char c = peek();
      if (c == '*' || c == '/') {
        ++pos_;
        parse_factor();
        program_.push_back({c == '*' ? Op::kMul : Op::kDiv, 0.0, 0});
      } else {
        return;
      }
    }
  }

  void parse_factor() {
    if (peek() == '-') {
      ++pos_;
      parse_factor();
      program_.push_back({Op::kNeg, 0.0, 0});
    } else {
      parse_power();
    }
  }

  void parse_power() {
    parse_primary();
    if (peek() == '^') {
      ++pos_;
      parse_factor();  // right-associative; a leading '-' in the exponent is fine
      program_.push_back({Op::kPow, 0.0, 0});
    }
  }

  void parse_primary() {
    skip_ws();
    if (pos_ >= source_.size()) fail(source_, pos_, "unexpected end of expression");
    const char c = source_[pos_];
    if (c == '(') {
      ++pos_;
      parse_expr();
      if (!eat(')')) fail(source_, pos_, "expected ')'");
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      parse_number();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      parse_ident();
      return;
    }
    fail(source_, pos_, std::string("unexpected character '") + c + "'");
  }

  void parse_number() {
    const std::size_t start = pos_;
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(source_.substr(start), &consumed);
    } catch (const std::exception&) {
      fail(source_, start, "malformed number");
    }
    pos_ = start + consumed;
    program_.push_back({Op::kPush, value, 0});
  }

  void parse_ident() {
    const std::size_t start = pos_;
    while (pos_ < source_.size() &&
           (std::isalnum(static_cast<unsigned char>(source_[pos_])) || source_[pos_] == '_')) {
      ++pos_;
    }
    const std::string name = source_.substr(start, pos_ - start);
    if (eat('(')) {
      for (const FnEntry& fn : kFns) {
        if (name == fn.name) {
          int argc = 0;
          if (!eat(')')) {
            do {
              parse_expr();
              ++argc;
            } while (eat(','));
            if (!eat(')')) fail(source_, pos_, "expected ')' after arguments");
          }
          if (argc != fn.arity) {
            fail(source_, start,
                 name + "() takes " + std::to_string(fn.arity) + " argument(s), got " +
                     std::to_string(argc));
          }
          if (fn.op == Op::kNoise) uses_noise_ = true;
          program_.push_back({fn.op, 0.0, 0});
          return;
        }
      }
      fail(source_, start, "unknown function '" + name + "' (known: " + known_names() + ")");
    }
    for (const VarEntry& var : kVars) {
      if (name == var.name) {
        program_.push_back({Op::kVar, 0.0, var.slot});
        return;
      }
    }
    fail(source_, start, "unknown identifier '" + name + "' (known: " + known_names() + ")");
  }

  const std::string& source_;
  std::vector<Instr>& program_;
  bool& uses_noise_;
  std::size_t pos_ = 0;
};

/// Total (never-NaN-from-domain) helpers; see the header's degradation
/// contract.
double safe_div(double x, double y) { return y == 0.0 ? 0.0 : x / y; }
double safe_sqrt(double x) { return x < 0.0 ? 0.0 : std::sqrt(x); }
double safe_pow(double x, double y) {
  const double r = std::pow(x, y);
  return std::isfinite(r) ? r : 0.0;
}

}  // namespace

DslExpr DslExpr::parse(const std::string& source) {
  DslExpr expr;
  expr.source_ = source;
  Parser(source, expr.program_, expr.uses_noise_).run();
  return expr;
}

double DslExpr::eval(const DslContext& ctx) const {
  double slots[kSlotCount] = {};
  if (ctx.model != nullptr) {
    slots[kSlotA] = ctx.model->a();
    slots[kSlotB] = ctx.model->b();
    slots[kSlotC] = ctx.model->c();
    slots[kSlotPMin] = ctx.model->p_min_w();
    slots[kSlotPMax] = ctx.model->p_max_w();
    slots[kSlotMaxSlowdown] = ctx.model->max_slowdown();
  }
  slots[kSlotNodes] = ctx.nodes;
  slots[kSlotJobs] = ctx.jobs;
  slots[kSlotBudgetW] = ctx.budget_w;
  slots[kSlotTotalNodes] = ctx.total_nodes;
  slots[kSlotFairW] = ctx.fair_w;

  // The parser guarantees stack balance.
  std::vector<double> stack;
  stack.reserve(16);
  auto pop = [&stack]() {
    const double v = stack.back();
    stack.pop_back();
    return v;
  };
  for (const Instr& instr : program_) {
    switch (instr.op) {
      case Op::kPush: stack.push_back(instr.value); break;
      case Op::kVar: stack.push_back(slots[instr.slot]); break;
      case Op::kNeg: stack.back() = -stack.back(); break;
      case Op::kAdd: { const double r = pop(); stack.back() += r; break; }
      case Op::kSub: { const double r = pop(); stack.back() -= r; break; }
      case Op::kMul: { const double r = pop(); stack.back() *= r; break; }
      case Op::kDiv: { const double r = pop(); stack.back() = safe_div(stack.back(), r); break; }
      case Op::kPow: { const double r = pop(); stack.back() = safe_pow(stack.back(), r); break; }
      case Op::kMin: { const double r = pop(); stack.back() = std::fmin(stack.back(), r); break; }
      case Op::kMax: { const double r = pop(); stack.back() = std::fmax(stack.back(), r); break; }
      case Op::kClamp: {
        const double hi = pop();
        const double lo = pop();
        stack.back() = std::fmin(std::fmax(stack.back(), lo), hi);
        break;
      }
      case Op::kAbs: stack.back() = std::fabs(stack.back()); break;
      case Op::kSqrt: stack.back() = safe_sqrt(stack.back()); break;
      case Op::kFloor: stack.back() = std::floor(stack.back()); break;
      case Op::kCeil: stack.back() = std::ceil(stack.back()); break;
      case Op::kTimeAt:
        stack.back() = ctx.model != nullptr ? ctx.model->time_at(stack.back()) : 0.0;
        break;
      case Op::kCapForTime:
        stack.back() = ctx.model != nullptr ? ctx.model->cap_for_time(stack.back()) : 0.0;
        break;
      case Op::kCapForSlowdown:
        stack.back() = ctx.model != nullptr ? ctx.model->cap_for_slowdown(stack.back()) : 0.0;
        break;
      case Op::kNoise: stack.push_back(dsl_noise()); break;
    }
  }
  return stack.back();
}

std::uint64_t dsl_source_hash(const std::string& source) {
  return util::fnv1a(source, util::kFnv1aRecordBasis);
}

double dsl_noise() {
  static std::atomic<std::uint64_t> counter{0};
  // splitmix64 scramble of a process-global counter: monotone state, so
  // two otherwise-identical runs in one process observe different values —
  // exactly the property the admission determinism gate must catch.
  std::uint64_t z = counter.fetch_add(1, std::memory_order_relaxed) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace anor::budget
