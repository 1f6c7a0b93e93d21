#include "wire/delivery_budget.hpp"

#include "wire/reliable_channel.hpp"

namespace amuse {

void DeliveryBudget::charge(const SharedPayload& payload) {
  used_ += payload.head().size();
  if (!payload.tail().empty()) {
    if (tail_refs_[payload.tail().data()]++ == 0) {
      used_ += payload.tail().size();
    }
  }
}

void DeliveryBudget::release(const SharedPayload& payload) {
  used_ -= payload.head().size();
  if (!payload.tail().empty()) {
    auto it = tail_refs_.find(payload.tail().data());
    if (it != tail_refs_.end() && --it->second == 0) {
      used_ -= payload.tail().size();
      tail_refs_.erase(it);
    }
  }
}

}  // namespace amuse
