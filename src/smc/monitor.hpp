// SelfMonitor: the cell observing itself through its own event bus.
//
// "Many management systems perform control actions as a result of receiving
//  events that an error threshold has been exceeded … or a component has
//  failed" (§II) — and the SMC's own health is managed the same way: the
// monitor periodically publishes an "smc.health" event carrying bus,
// policy and membership statistics, so ordinary obligation policies can
// close the autonomic loop (e.g. raise "alarm.overload" when the event
// rate or a member's delivery backlog crosses a threshold).
//
// Health event attributes:
//   members            current membership size
//   published_total    cumulative events through the bus
//   event_rate         events/second over the last interval
//   deliveries_total   cumulative member deliveries
//   denied_total       authorisation denials (publish + subscribe)
//   max_backlog        largest per-member outbound queue
//   policy_triggers    cumulative obligation-engine triggers
#pragma once

#include "sim/timer.hpp"
#include "smc/cell.hpp"

namespace amuse {

struct SelfMonitorConfig {
  Duration interval = seconds(5);
};

/// Event type the monitor publishes each interval.
inline constexpr const char* kHealthEventType = "smc.health";

class SelfMonitor {
 public:
  SelfMonitor(Executor& executor, SelfManagedCell& cell,
              SelfMonitorConfig config = {});

  SelfMonitor(const SelfMonitor&) = delete;
  SelfMonitor& operator=(const SelfMonitor&) = delete;

  AMUSE_AFFINITY(core_executor) void start();
  AMUSE_AFFINITY(core_executor) void stop();

  [[nodiscard]] std::uint64_t reports_published() const { return reports_; }

 private:
  AMUSE_AFFINITY(core_executor) void tick();

  SelfManagedCell& cell_;
  SelfMonitorConfig config_;
  Timer report_timer_;
  bool running_ = false;
  std::uint64_t last_published_ = 0;
  std::uint64_t reports_ = 0;
};

}  // namespace amuse
