// Default models for jobs that have not reported epochs yet.
//
// Paper Sec. 4.2: "Jobs that report no epochs or that have yet to build a
// model use a default model."  Sec. 6.1.2 evaluates two natural choices:
// assume the unknown job follows the least-sensitive known curve (IS) or
// the most-sensitive one (EP).
#pragma once

#include <string>

#include "model/perf_model.hpp"

namespace anor::model {

enum class DefaultModelPolicy {
  kLeastSensitive,  // assume the IS-like (flattest) known curve
  kMostSensitive,   // assume the EP-like (steepest) known curve
  kMedian,          // middle-of-the-road known curve
};

std::string to_string(DefaultModelPolicy policy);

/// The default model under a policy, derived from the registered job
/// types' ground-truth curves.
PowerPerfModel default_model(DefaultModelPolicy policy);

/// The model for a (possibly mis-)classified job: the ground-truth curve
/// of `classified_as`, fitted once per process.  Misclassification
/// experiments feed a wrong name here on purpose; an unknown name throws
/// ConfigError.
PowerPerfModel model_for_class(const std::string& classified_as);

}  // namespace anor::model
