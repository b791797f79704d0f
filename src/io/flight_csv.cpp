#include "io/flight_csv.hpp"

#include <fstream>

namespace sb::io {

bool write_truth_csv(const std::string& path, const sim::FlightLog& log,
                     std::size_t stride) {
  std::ofstream os{path};
  if (!os || stride == 0) return false;
  os << "t,px,py,pz,vx,vy,vz,ax,ay,az,roll,pitch,yaw";
  for (int r = 0; r < log.num_rotors; ++r) os << ",w" << r;
  os << '\n';
  for (std::size_t i = 0; i < log.t.size(); i += stride) {
    os << log.t[i] << ',' << log.true_pos[i].x << ',' << log.true_pos[i].y << ','
       << log.true_pos[i].z << ',' << log.true_vel[i].x << ',' << log.true_vel[i].y
       << ',' << log.true_vel[i].z << ',' << log.true_accel[i].x << ','
       << log.true_accel[i].y << ',' << log.true_accel[i].z << ','
       << log.true_euler[i].x << ',' << log.true_euler[i].y << ','
       << log.true_euler[i].z;
    for (int r = 0; r < log.num_rotors; ++r)
      os << ',' << log.rotor_omega[i][static_cast<std::size_t>(r)];
    os << '\n';
  }
  return static_cast<bool>(os);
}

bool write_imu_csv(const std::string& path, const sim::FlightLog& log) {
  std::ofstream os{path};
  if (!os) return false;
  os << "t,gx,gy,gz,fx,fy,fz,ax_ned,ay_ned,az_ned\n";
  for (const auto& s : log.imu) {
    os << s.t << ',' << s.gyro.x << ',' << s.gyro.y << ',' << s.gyro.z << ','
       << s.specific_force.x << ',' << s.specific_force.y << ','
       << s.specific_force.z << ',' << s.accel_ned.x << ',' << s.accel_ned.y << ','
       << s.accel_ned.z << '\n';
  }
  return static_cast<bool>(os);
}

bool write_gps_csv(const std::string& path, const sim::FlightLog& log) {
  std::ofstream os{path};
  if (!os) return false;
  os << "t,px,py,pz,vx,vy,vz\n";
  for (const auto& s : log.gps) {
    os << s.t << ',' << s.pos.x << ',' << s.pos.y << ',' << s.pos.z << ','
       << s.vel.x << ',' << s.vel.y << ',' << s.vel.z << '\n';
  }
  return static_cast<bool>(os);
}

}  // namespace sb::io
