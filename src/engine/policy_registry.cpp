#include "engine/policy_registry.hpp"

#include <utility>

#include "budget/expr_budgeter.hpp"
#include "budget/policy_dsl.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace anor::engine {

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

PolicyDescriptor make_builtin(std::string name, std::string summary,
                              budget::BudgeterFactory factory, bool feedback,
                              bool expects_labels, bool strip_labels) {
  PolicyDescriptor d;
  d.name = std::move(name);
  d.summary = std::move(summary);
  d.builtin = true;
  d.budgeter_factory = std::move(factory);
  d.feedback = feedback;
  d.expects_misclassification = expects_labels;
  d.strip_labels_for_tabular = strip_labels;
  return d;
}

}  // namespace

std::string PolicyDescriptor::identity() const {
  if (builtin) return name;
  if (!dsl_source.empty()) return name + "#" + util::hex16(budget::dsl_source_hash(dsl_source));
  return name + "#native";
}

PolicyRegistry::PolicyRegistry() {
  // The four paper policies (Fig. 6-10 legends).
  for (PolicyDescriptor& d : std::vector<PolicyDescriptor>{
           make_builtin("uniform", "performance-agnostic even-power budgeter",
                        budget::even_power_factory(), false, false, false),
           make_builtin("characterized",
                        "even-slowdown budgeter with correct precharacterized models",
                        budget::even_slowdown_factory(), false, false, false),
           make_builtin("misclassified",
                        "even-slowdown with wrong classification labels, feedback off",
                        budget::even_slowdown_factory(), false, true, false),
           make_builtin("adjusted",
                        "misclassified with the job-tier feedback loop enabled",
                        budget::even_slowdown_factory(), true, true, true)}) {
    policies_.emplace(d.name, std::move(d));
  }
}

PolicyRegistry& PolicyRegistry::global() {
  static PolicyRegistry registry;
  return registry;
}

void PolicyRegistry::register_policy(PolicyDescriptor descriptor) {
  if (descriptor.name.empty()) {
    throw util::ConfigError("policy registry: policy name must be non-empty");
  }
  if (descriptor.builtin) {
    throw util::ConfigError("policy registry: built-in policies cannot be registered "
                            "externally ('" + descriptor.name + "')");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = policies_.find(descriptor.name);
  if (it != policies_.end()) {
    if (it->second.builtin) {
      throw util::ConfigError("policy registry: '" + descriptor.name +
                              "' is a built-in policy name and cannot be redefined");
    }
    if (it->second.identity() == descriptor.identity()) return;  // idempotent
    throw util::ConfigError(
        "policy registry: '" + descriptor.name + "' is already registered with a "
        "different definition (" + it->second.identity() + " vs " + descriptor.identity() +
        "); unregister it first or pick another name");
  }
  policies_.emplace(descriptor.name, std::move(descriptor));
}

void PolicyRegistry::register_expression_policy(const std::string& name,
                                                const std::string& expr,
                                                const std::string& summary) {
  budget::DslExpr::parse(expr);  // surface syntax errors at registration
  PolicyDescriptor d;
  d.name = name;
  d.summary = summary.empty() ? "expression-DSL policy" : summary;
  d.dsl_source = expr;
  d.budgeter_factory = [name, expr] {
    return std::unique_ptr<budget::Budgeter>(
        std::make_unique<budget::ExpressionBudgeter>(name, budget::DslExpr::parse(expr)));
  };
  register_policy(std::move(d));
}

void PolicyRegistry::unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = policies_.find(name);
  if (it == policies_.end()) return;
  if (it->second.builtin) {
    throw util::ConfigError("policy registry: cannot unregister built-in '" + name + "'");
  }
  policies_.erase(it);
  admitted_.erase(name);
}

bool PolicyRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policies_.count(name) != 0;
}

PolicyDescriptor PolicyRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = policies_.find(name);
  if (it == policies_.end()) {
    std::vector<std::string> available;
    available.reserve(policies_.size());
    for (const auto& [key, unused] : policies_) available.push_back(key);
    throw util::ConfigError("unknown policy '" + name + "' (available: " +
                            join_names(available) + ")");
  }
  return it->second;
}

std::vector<std::string> PolicyRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(policies_.size());
  for (const auto& [key, unused] : policies_) out.push_back(key);
  return out;  // std::map iterates sorted
}

const std::vector<std::string>& PolicyRegistry::builtin_names() {
  static const std::vector<std::string> names = {"uniform", "characterized",
                                                 "misclassified", "adjusted"};
  return names;
}

bool PolicyRegistry::is_admitted(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto policy = policies_.find(name);
  if (policy == policies_.end()) return false;
  if (policy->second.builtin) return true;
  const auto it = admitted_.find(name);
  return it != admitted_.end() && it->second == policy->second.identity();
}

void PolicyRegistry::mark_admitted(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto policy = policies_.find(name);
  if (policy == policies_.end()) {
    throw util::ConfigError("policy registry: cannot admit unregistered policy '" + name +
                            "'");
  }
  admitted_[name] = policy->second.identity();
}

PolicyDescriptor resolve_policy(const PolicyRef& ref) {
  PolicyRegistry& registry = PolicyRegistry::global();
  if (!ref.dsl.empty()) {
    registry.register_expression_policy(ref.name, ref.dsl);
  }
  return registry.get(ref.name);
}

// --- PolicyRef helpers declared in scenario.hpp ------------------------
//
// Implemented here (not scenario.cpp) because they resolve through the
// registry and parse DSL expressions.

PolicyRef policy_from_string(const std::string& name) {
  PolicyRegistry::global().get(name);  // validates; throws listing entries
  return PolicyRef(name);
}

bool expects_misclassification(const PolicyRef& policy) {
  return resolve_policy(policy).expects_misclassification;
}

PolicyRef policy_ref_from_json(const util::Json& json) {
  if (json.is_string()) return policy_from_string(json.as_string());
  if (!json.is_object()) {
    throw util::ConfigError(
        "policy: expected a registry name string or {\"name\", \"expr\"} object");
  }
  const std::string name = json.at("name").as_string();
  const std::string expr = json.string_or("expr", "");
  if (expr.empty()) return policy_from_string(name);
  budget::DslExpr::parse(expr);  // parse-check before the ref circulates
  return PolicyRef(name, expr);
}

util::Json policy_ref_to_json(const PolicyRef& policy) {
  if (policy.dsl.empty()) return util::Json(policy.name);
  util::JsonObject obj;
  obj["name"] = util::Json(policy.name);
  obj["expr"] = util::Json(policy.dsl);
  return util::Json(std::move(obj));
}

}  // namespace anor::engine
