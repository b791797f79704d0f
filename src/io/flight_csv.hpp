// CSV export of flight recordings: ground truth and sensor streams, for
// external plotting/analysis (e.g. regenerating the paper's figures
// graphically).
#pragma once

#include <string>

#include "sim/simulator.hpp"

namespace sb::io {

// Ground truth + rotor speeds at the physics rate (decimated by `stride`).
bool write_truth_csv(const std::string& path, const sim::FlightLog& log,
                     std::size_t stride = 4);

// IMU stream as seen by the autopilot (possibly attacked).
bool write_imu_csv(const std::string& path, const sim::FlightLog& log);

// GPS stream (possibly attacked).
bool write_gps_csv(const std::string& path, const sim::FlightLog& log);

}  // namespace sb::io
