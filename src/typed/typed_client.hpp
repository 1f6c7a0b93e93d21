// TypedClient: the type-based programming model over a BusClient.
//
// Publishing validates the event against its declared schema before it
// touches the radio; subscribing by type name covers the whole declared
// subtree (one underlying content filter per concrete type), optionally
// refined with content constraints — the best of both models, as the TBPS
// paper argues.
#pragma once

#include <map>

#include "bus/bus_client.hpp"
#include "typed/event_type.hpp"

namespace amuse {

class TypedClient {
 public:
  using Handler = BusClient::Handler;

  /// Both references must outlive the TypedClient. The registry should be
  /// fully populated before subscriptions are made: types declared later
  /// are not retroactively covered (call resubscribe_all() after late
  /// declarations).
  TypedClient(BusClient& client, const TypeRegistry& registry)
      : client_(client), registry_(registry) {}

  /// Validates against the schema; returns false (with the reason
  /// retrievable via last_error()) without publishing when invalid.
  bool publish(Event event);

  /// Subscribes to `type_name` and its declared subtypes; `refinement`
  /// constraints are AND-ed into every generated filter. Returns 0 when
  /// the type is unknown.
  std::uint64_t subscribe(const std::string& type_name, Handler handler,
                          const Filter& refinement = {});
  void unsubscribe(std::uint64_t id);

  /// Re-issues every typed subscription (after late type declarations).
  void resubscribe_all();

  [[nodiscard]] const std::string& last_error() const { return last_error_; }

  struct Stats {
    Counter published;
    Counter schema_rejections;
    Counter subscriptions;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct TypedSub {
    std::string type_name;
    Filter refinement;
    Handler handler;
    std::vector<std::uint64_t> client_ids;  // underlying BusClient subs
  };

  BusClient& client_;
  const TypeRegistry& registry_;
  std::map<std::uint64_t, TypedSub> subs_;
  std::uint64_t next_id_ = 1;
  std::string last_error_;
  Stats stats_;
};

}  // namespace amuse
