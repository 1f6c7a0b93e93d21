// Body-area sensors and their proxy codecs.
//
// Four wireless vital-sign sensors (heart rate, SpO2, body temperature,
// blood pressure) share one synthetic patient body. Each sensor is a
// RawDevice emitting compact binary readings:
//
//   reading payload: u16 value×10 [, u16 value2×10 for BP] , u8 flags
//                    (flags bit0 = device-side high-threshold exceeded)
//   command payload: u8 cmd, u16 arg   cmd 1 = set high threshold (×10)
//                                      cmd 2 = set low threshold  (×10)
//                    u8 cmd, u32 arg   cmd 3 = set reading interval (ms) —
//                    the Policy Service "chang[ing] thresholds or
//                    monitoring strategy" (§II)
//
// The matching DeviceCodec translates readings into "vitals.<kind>" events
// and control events ("control.threshold", "control.interval") into device
// commands.
#pragma once

#include <memory>

#include "devices/device.hpp"
#include "devices/vitals.hpp"
#include "proxy/bootstrap.hpp"
#include "proxy/device_codec.hpp"
#include "proxy/translating_proxy.hpp"

namespace amuse {

/// One patient's body: steps the vitals model on a fixed cadence so every
/// attached sensor samples a consistent physiological state.
class PatientBody {
 public:
  PatientBody(Executor& executor, std::uint64_t seed,
              VitalsProfile profile = {},
              Duration step_interval = milliseconds(500));

  PatientBody(const PatientBody&) = delete;
  PatientBody& operator=(const PatientBody&) = delete;

  [[nodiscard]] const VitalsSample& current() const { return current_; }
  [[nodiscard]] VitalsModel& model() { return model_; }

 private:
  void tick();
  VitalsModel model_;
  VitalsSample current_;
  Duration interval_;
  Timer step_timer_;
};

enum class VitalKind { kHeartRate, kSpO2, kTemperature, kBloodPressure };

/// "sensor.heartrate", "vitals.heartrate", attribute name, unit, default
/// high/low thresholds.
struct VitalKindInfo {
  const char* device_type;
  const char* event_type;
  const char* attr;
  const char* unit;
  double default_hi;
  double default_lo;
};
[[nodiscard]] const VitalKindInfo& vital_kind_info(VitalKind kind);

/// Sensor device (member side).
class VitalSensor final : public RawDevice {
 public:
  VitalSensor(Executor& executor, std::shared_ptr<Transport> transport,
              std::shared_ptr<PatientBody> body, VitalKind kind,
              RawDeviceConfig config);

  [[nodiscard]] double threshold_hi() const { return threshold_hi_; }
  [[nodiscard]] double threshold_lo() const { return threshold_lo_; }

 protected:
  std::optional<Bytes> next_reading() override;
  void on_command(BytesView payload) override;

 private:
  std::shared_ptr<PatientBody> body_;
  VitalKind kind_;
  double threshold_hi_;
  double threshold_lo_;
};

/// Proxy-side codec for one sensor member.
class VitalCodec final : public DeviceCodec {
 public:
  VitalCodec(VitalKind kind, ServiceId member);

  std::optional<Event> decode_reading(BytesView payload) override;
  std::optional<Bytes> encode_command(const Event& event) override;
  std::vector<Filter> initial_subscriptions() override;
  [[nodiscard]] bool readings_need_ack() const override {
    // The paper's own example: the temperature sensor "may periodically
    // transmit data and not require any acknowledgement".
    return kind_ != VitalKind::kTemperature;
  }

 private:
  VitalKind kind_;
  ServiceId member_;
};

/// Registers translating proxies for all four sensor types with a bus's
/// proxy factory (call once before starting discovery).
void register_vital_sensor_proxies(ProxyFactory& factory);

/// Convenience: default RawDeviceConfig for a sensor of `kind` joining
/// `cell_name` with `psk`.
[[nodiscard]] RawDeviceConfig sensor_device_config(VitalKind kind,
                                                   const std::string&
                                                       cell_name,
                                                   const Bytes& psk,
                                                   Duration reading_interval);

}  // namespace amuse
