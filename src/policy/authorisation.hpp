// AuthorisationService: evaluates Ponder-lite authorisation policies for
// the event bus ("authorisation policies specify what resources the
// components assigned to a role can access", §II-A).
//
// Decision rule: auth policies are consulted in declaration order; the
// first one whose (role, action, topic-pattern) matches wins. If none
// match, the document's default verdict applies (permit unless declared).
#pragma once

#include "bus/event_bus.hpp"
#include "policy/policy_store.hpp"

namespace amuse {

class AuthorisationService {
 public:
  explicit AuthorisationService(const PolicyStore& store) : store_(store) {}

  [[nodiscard]] bool check(const std::string& role, AuthOp op,
                           std::string_view topic) const;

  /// Adapter for EventBus::set_authoriser. The returned closure references
  /// this service; keep it alive as long as the bus.
  [[nodiscard]] EventBus::Authoriser authoriser();

  struct Stats {
    Counter checks;
    Counter denials;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  const PolicyStore& store_;
  mutable Stats stats_;
};

}  // namespace amuse
