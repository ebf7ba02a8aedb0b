// Unit conventions and physical constants used throughout ANOR.
//
// All quantities are plain `double`s; the *name* carries the unit:
//   *_w  watts          *_j  joules         *_s  seconds
//   *_kw kilowatts      *_hz hertz
// Helper functions convert between scales so call sites read naturally.
#pragma once

namespace anor::util {

constexpr double kWattsPerKilowatt = 1000.0;
constexpr double kSecondsPerHour = 3600.0;

constexpr double kilowatts_from_watts(double w) { return w / kWattsPerKilowatt; }
constexpr double hours_from_seconds(double s) { return s / kSecondsPerHour; }

}  // namespace anor::util
