#include "devices/sensors.hpp"

#include <cmath>
#include <string_view>

namespace amuse {

PatientBody::PatientBody(Executor& executor, std::uint64_t seed,
                         VitalsProfile profile, Duration step_interval)
    : model_(seed, profile),
      interval_(step_interval),
      step_timer_(executor, [this] { tick(); }) {
  current_ = model_.step();
  step_timer_.arm_after(interval_);
}

void PatientBody::tick() {
  current_ = model_.step();
  step_timer_.arm_after(interval_);
}

const VitalKindInfo& vital_kind_info(VitalKind kind) {
  static constexpr VitalKindInfo kInfos[] = {
      {"sensor.heartrate", "vitals.heartrate", "hr", "bpm", 120.0, 40.0},
      {"sensor.spo2", "vitals.spo2", "spo2", "percent", 100.0, 92.0},
      {"sensor.temperature", "vitals.temperature", "temp_c", "celsius", 38.2,
       35.0},
      {"sensor.bloodpressure", "vitals.bloodpressure", "systolic", "mmHg",
       150.0, 90.0},
  };
  return kInfos[static_cast<int>(kind)];
}

namespace {

double sample_value(const VitalsSample& s, VitalKind kind) {
  switch (kind) {
    case VitalKind::kHeartRate: return s.heart_rate;
    case VitalKind::kSpO2: return s.spo2;
    case VitalKind::kTemperature: return s.temperature;
    case VitalKind::kBloodPressure: return s.systolic;
  }
  return 0.0;
}

std::uint16_t scale10(double v) {
  double scaled = std::max(0.0, std::min(6553.0, v));
  return static_cast<std::uint16_t>(std::lround(scaled * 10.0));
}

}  // namespace

VitalSensor::VitalSensor(Executor& executor,
                         std::shared_ptr<Transport> transport,
                         std::shared_ptr<PatientBody> body, VitalKind kind,
                         RawDeviceConfig config)
    : RawDevice(executor, std::move(transport), std::move(config)),
      body_(std::move(body)),
      kind_(kind),
      threshold_hi_(vital_kind_info(kind).default_hi),
      threshold_lo_(vital_kind_info(kind).default_lo) {}

std::optional<Bytes> VitalSensor::next_reading() {
  const VitalsSample& s = body_->current();
  double value = sample_value(s, kind_);
  bool above = value > threshold_hi_ || value < threshold_lo_;

  Writer w;
  w.u16(scale10(value));
  if (kind_ == VitalKind::kBloodPressure) w.u16(scale10(s.diastolic));
  w.u8(above ? 0x01 : 0x00);
  return std::move(w).take();
}

void VitalSensor::on_command(BytesView payload) {
  try {
    Reader r(payload);
    std::uint8_t cmd = r.u8();
    switch (cmd) {
      case 1:
        threshold_hi_ = static_cast<double>(r.u16()) / 10.0;
        break;
      case 2:
        threshold_lo_ = static_cast<double>(r.u16()) / 10.0;
        break;
      case 3:
        // Monitoring-strategy change: new reading interval in ms. The
        // periodic loop picks it up on its next tick via config mutation
        // is not exposed; devices this simple just ignore (documented
        // limitation exercised in tests via thresholds instead).
        (void)r.u32();
        break;
      default:
        break;
    }
  } catch (const DecodeError&) {
    // Malformed command: a real sensor would blink an LED; we drop it.
  }
}

VitalCodec::VitalCodec(VitalKind kind, ServiceId member)
    : kind_(kind), member_(member) {}

std::optional<Event> VitalCodec::decode_reading(BytesView payload) {
  const VitalKindInfo& info = vital_kind_info(kind_);
  try {
    Reader r(payload);
    double value = static_cast<double>(r.u16()) / 10.0;
    double dia = 0.0;
    if (kind_ == VitalKind::kBloodPressure) {
      dia = static_cast<double>(r.u16()) / 10.0;
    }
    std::uint8_t flags = r.u8();
    Event e(info.event_type);
    e.set(info.attr, value);
    if (kind_ == VitalKind::kBloodPressure) e.set("diastolic", dia);
    e.set("unit", info.unit);
    e.set("alarm", (flags & 0x01) != 0);
    e.set("member", static_cast<std::int64_t>(member_.raw()));
    return e;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::optional<Bytes> VitalCodec::encode_command(const Event& event) {
  // Only commands addressed to this member translate to device bytes.
  if (event.get_int("member") != static_cast<std::int64_t>(member_.raw())) {
    return std::nullopt;
  }
  std::string_view type = event.type();
  Writer w;
  if (type == "control.threshold") {
    bool low = event.get_string("bound") == "low";
    w.u8(low ? 2 : 1);
    w.u16(scale10(event.get_double("value")));
    return std::move(w).take();
  }
  if (type == "control.interval") {
    w.u8(3);
    w.u32(static_cast<std::uint32_t>(event.get_int("ms", 1000)));
    return std::move(w).take();
  }
  return std::nullopt;
}

std::vector<Filter> VitalCodec::initial_subscriptions() {
  std::int64_t me = static_cast<std::int64_t>(member_.raw());
  Filter threshold;
  threshold.where("type", Op::kEq, "control.threshold")
      .where("member", Op::kEq, me);
  Filter interval;
  interval.where("type", Op::kEq, "control.interval")
      .where("member", Op::kEq, me);
  return {threshold, interval};
}

void register_vital_sensor_proxies(ProxyFactory& factory) {
  for (VitalKind kind :
       {VitalKind::kHeartRate, VitalKind::kSpO2, VitalKind::kTemperature,
        VitalKind::kBloodPressure}) {
    factory.register_type(
        vital_kind_info(kind).device_type,
        [kind](BusPort& bus, const MemberInfo& info) {
          return std::make_unique<TranslatingProxy>(
              bus, info, std::make_unique<VitalCodec>(kind, info.id));
        });
  }
}

RawDeviceConfig sensor_device_config(VitalKind kind,
                                     const std::string& cell_name,
                                     const Bytes& psk,
                                     Duration reading_interval) {
  RawDeviceConfig cfg;
  cfg.agent.cell_name = cell_name;
  cfg.agent.pre_shared_key = psk;
  cfg.agent.device_type = vital_kind_info(kind).device_type;
  cfg.agent.role = "sensor";
  cfg.reading_interval = reading_interval;
  cfg.readings_need_ack = kind != VitalKind::kTemperature;
  return cfg;
}

}  // namespace amuse
