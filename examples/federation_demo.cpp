// Federated cells (§I, §VI): two self-managed cells — a patient's body-area
// cell and a ward-level cell — collaborating peer-to-peer through a
// dual-homed gateway that is a member of both. Alarms raised inside the
// patient cell cross to the ward cell, where a ward-level policy pages the
// duty doctor; routine vitals stay local.
//
// Run: ./federation_demo
#include <cstdio>

#include "devices/sensors.hpp"
#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "smc/cell.hpp"
#include "smc/gateway.hpp"
#include "sim/sim_executor.hpp"

int main() {
  using namespace amuse;

  SimExecutor executor;
  SimNetwork net(executor, /*seed=*/0xFED);
  net.set_default_link(profiles::usb_ip_link());
  SimHost& patient_hub = net.add_host("patient-pda", profiles::ideal_host());
  SimHost& ward_hub = net.add_host("ward-server", profiles::ideal_host());
  SimHost& body = net.add_host("body", profiles::ideal_host());
  SimHost& gw_host = net.add_host("gateway", profiles::ideal_host());

  // --- Patient cell: sensors + local alarm policy.
  SmcCellConfig pc;
  pc.name = "patient-7";
  pc.pre_shared_key = to_bytes("patient-key");
  pc.discovery.beacon_interval = milliseconds(400);
  pc.discovery.heartbeat_interval = milliseconds(400);
  SelfManagedCell patient_cell(executor, net.create_endpoint(patient_hub),
                               net.create_endpoint(patient_hub), pc);
  register_vital_sensor_proxies(patient_cell.bus().factory());
  patient_cell.load_policies(R"(
    policy cardiac on vitals.heartrate
      when hr > 150
      do publish alarm.cardiac { level = "critical", hr = hr,
                                 patient = "patient-7" };
  )");
  patient_cell.start();

  // --- Ward cell: reacts to alarms arriving from federated patient cells.
  SmcCellConfig wc;
  wc.name = "ward-b";
  wc.pre_shared_key = to_bytes("ward-key");
  SelfManagedCell ward_cell(executor, net.create_endpoint(ward_hub),
                            net.create_endpoint(ward_hub), wc);
  ward_cell.load_policies(R"(
    policy page_doctor on alarm.cardiac
      do publish ward.page { who = "duty-doctor", reason = "cardiac",
                             patient = patient }
         log "paging duty doctor";
  )");
  ward_cell.start();

  // --- Federation: a gateway joins both cells in the gateway role. It
  // imports what the ward cell subscribes to (its page_doctor policy's
  // alarm.cardiac) and, pinned here, every alarm; vitals stay local.
  auto gateway_member = [&](const SmcCellConfig& cell) {
    SmcMemberConfig mc;
    mc.agent.cell_name = cell.name;
    mc.agent.pre_shared_key = cell.pre_shared_key;
    mc.agent.device_type = "gateway";
    mc.agent.role = std::string(kGatewayRole);
    return std::make_unique<SmcMember>(executor, net.create_endpoint(gw_host),
                                       mc);
  };
  auto in_patient = gateway_member(pc);
  auto in_ward = gateway_member(wc);
  FederationGateway gateway(*in_patient, *in_ward);
  gateway.share(Filter::for_type_prefix("alarm."));
  in_patient->start();
  in_ward->start();

  std::vector<std::string> pages;
  ward_cell.bus().subscribe_local(Filter::for_type("ward.page"),
                                  [&](const Event& e) {
                                    pages.push_back(e.get_string("patient"));
                                  });
  // Watch what the ward routes without subscribing (a subscription would
  // itself pull vitals across the link).
  std::size_t vitals_in_ward = 0;
  BusObserver tap;
  tap.on_publish = [&](const Event& e) {
    if (e.type().starts_with("vitals.")) ++vitals_in_ward;
  };
  ward_cell.bus().set_observer(tap);

  // Sensor joins the patient cell and an episode strikes.
  auto patient = std::make_shared<PatientBody>(executor, /*seed=*/5);
  VitalSensor hr(executor, net.create_endpoint(body), patient,
                 VitalKind::kHeartRate,
                 sensor_device_config(VitalKind::kHeartRate, pc.name,
                                      pc.pre_shared_key, milliseconds(500)));
  hr.start();
  executor.run_for(seconds(5));

  patient->model().trigger_episode();
  for (int i = 0; i < 20 && pages.empty(); ++i) {
    executor.run_for(seconds(1));
    patient->model().trigger_episode();
  }
  patient->model().end_episode();
  executor.run_for(seconds(2));

  std::printf("patient cell: %llu events published\n",
              static_cast<unsigned long long>(
                  patient_cell.bus().stats().published));
  std::printf("federated to ward: %llu (alarms only; %zu vitals leaked)\n",
              static_cast<unsigned long long>(gateway.stats().forwarded),
              vitals_in_ward);
  std::printf("ward pages issued: %zu%s\n", pages.size(),
              pages.empty() ? "" : (" (patient " + pages[0] + ")").c_str());
  return 0;
}
