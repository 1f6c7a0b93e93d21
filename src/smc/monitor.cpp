#include "smc/monitor.hpp"

namespace amuse {

SelfMonitor::SelfMonitor(Executor& executor, SelfManagedCell& cell,
                         SelfMonitorConfig config)
    : cell_(cell),
      config_(std::move(config)),
      report_timer_(executor, [this] { tick(); }) {}

void SelfMonitor::start() {
  if (running_) return;
  running_ = true;
  last_published_ = cell_.bus().stats().published;
  report_timer_.arm_after(config_.interval);
}

void SelfMonitor::stop() {
  running_ = false;
  report_timer_.cancel();
}

void SelfMonitor::tick() {
  if (!running_) return;
  const EventBus::Stats& bus = cell_.bus().stats();
  double rate = static_cast<double>(bus.published - last_published_) /
                to_seconds(config_.interval);
  last_published_ = bus.published;

  Event health(kHealthEventType);
  health.set("members",
             static_cast<std::int64_t>(cell_.bus().members().size()));
  health.set("published_total", static_cast<std::int64_t>(bus.published));
  health.set("event_rate", rate);
  health.set("deliveries_total", static_cast<std::int64_t>(bus.deliveries));
  health.set("denied_total",
             static_cast<std::int64_t>(bus.denied_publish +
                                       bus.denied_subscribe));
  health.set("max_backlog",
             static_cast<std::int64_t>(cell_.bus().max_proxy_backlog()));
  health.set("policy_triggers",
             static_cast<std::int64_t>(cell_.obligations().stats().triggers));
  ++reports_;
  cell_.bus().publish_local(std::move(health));

  report_timer_.arm_after(config_.interval);
}

}  // namespace amuse
