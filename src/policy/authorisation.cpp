#include "policy/authorisation.hpp"

namespace amuse {

bool AuthorisationService::check(const std::string& role, AuthOp op,
                                 std::string_view topic) const {
  ++stats_.checks;
  for (const AuthPolicy& p : store_.auths()) {
    if (p.matches(role, op, topic)) {
      bool permitted = p.verdict == AuthVerdict::kPermit;
      if (!permitted) ++stats_.denials;
      return permitted;
    }
  }
  bool permitted = store_.default_verdict() == AuthVerdict::kPermit;
  if (!permitted) ++stats_.denials;
  return permitted;
}

EventBus::Authoriser AuthorisationService::authoriser() {
  return [this](const MemberInfo& member, AuthAction action,
                std::string_view topic) {
    AuthOp op = action == AuthAction::kPublish ? AuthOp::kPublish
                                               : AuthOp::kSubscribe;
    return check(member.role, op, topic);
  };
}

}  // namespace amuse
