#include "typed/event_type.hpp"

namespace amuse {

std::vector<FieldSpec> EventType::all_fields() const {
  std::vector<FieldSpec> out;
  // Parents first so subtype fields appear after inherited ones.
  if (parent_) out = parent_->all_fields();
  out.insert(out.end(), fields_.begin(), fields_.end());
  return out;
}

bool EventType::is_a(const EventType& ancestor) const {
  for (const EventType* t = this; t != nullptr; t = t->parent_) {
    if (t == &ancestor) return true;
  }
  return false;
}

const EventType& TypeRegistry::declare(const std::string& name,
                                       std::vector<FieldSpec> fields) {
  return declare_impl(name, nullptr, std::move(fields));
}

const EventType& TypeRegistry::declare(const std::string& name,
                                       const std::string& parent,
                                       std::vector<FieldSpec> fields) {
  const EventType* p = find(parent);
  if (!p) throw TypeError("unknown parent type '" + parent + "'");
  return declare_impl(name, p, std::move(fields));
}

const EventType& TypeRegistry::declare_impl(const std::string& name,
                                            const EventType* parent,
                                            std::vector<FieldSpec> fields) {
  if (types_.contains(name)) {
    throw TypeError("type '" + name + "' already declared");
  }
  // A subtype may not redeclare an inherited field with a different type.
  if (parent) {
    for (const FieldSpec& inherited : parent->all_fields()) {
      for (const FieldSpec& f : fields) {
        if (f.name == inherited.name && f.type != inherited.type) {
          throw TypeError("type '" + name + "' redefines field '" + f.name +
                          "' with a different type");
        }
      }
    }
  }
  auto [it, inserted] =
      types_.emplace(name, EventType(name, parent, std::move(fields)));
  return it->second;
}

const EventType* TypeRegistry::find(const std::string& name) const {
  auto it = types_.find(name);
  return it == types_.end() ? nullptr : &it->second;
}

bool TypeRegistry::is_subtype(const std::string& name,
                              const std::string& ancestor) const {
  const EventType* t = find(name);
  const EventType* a = find(ancestor);
  return t && a && t->is_a(*a);
}

std::vector<const EventType*> TypeRegistry::subtree(
    const std::string& ancestor) const {
  std::vector<const EventType*> out;
  const EventType* a = find(ancestor);
  if (!a) return out;
  for (const auto& [name, type] : types_) {
    if (type.is_a(*a)) out.push_back(&type);
  }
  return out;
}

std::optional<std::string> TypeRegistry::validate(const Event& e) const {
  std::string type_name(e.type());
  if (type_name.empty()) return "event has no type attribute";
  const EventType* t = find(type_name);
  if (!t) return "unknown event type '" + type_name + "'";
  for (const FieldSpec& f : t->all_fields()) {
    std::optional<ValueView> v = e.get(f.name);
    if (!v) {
      if (f.required) {
        return "missing required field '" + f.name + "' of type '" +
               type_name + "'";
      }
      continue;
    }
    // Numeric family unified: an int where a double is declared (or vice
    // versa) is fine — devices send what their ADCs produce.
    bool ok = v->type() == f.type ||
              (v->is_numeric() && (f.type == ValueType::kInt ||
                                   f.type == ValueType::kDouble));
    if (!ok) {
      return "field '" + f.name + "' of '" + type_name + "' is " +
             std::string(to_string(v->type())) + ", declared " +
             std::string(to_string(f.type));
    }
  }
  return std::nullopt;
}

std::vector<Filter> TypeRegistry::subscription_filters(
    const std::string& ancestor, const Filter& refinement) const {
  std::vector<Filter> out;
  for (const EventType* t : subtree(ancestor)) {
    Filter f = Filter::for_type(t->name());
    for (const Constraint& c : refinement.constraints()) {
      f.where(c.attribute, c.op, c.value);
    }
    out.push_back(std::move(f));
  }
  return out;
}

void declare_ehealth_types(TypeRegistry& registry) {
  registry.declare("vitals", {{"member", ValueType::kInt, true},
                              {"unit", ValueType::kString, false},
                              {"alarm", ValueType::kBool, false}});
  registry.declare("vitals.heartrate", "vitals",
                   {{"hr", ValueType::kDouble, true}});
  registry.declare("vitals.spo2", "vitals",
                   {{"spo2", ValueType::kDouble, true}});
  registry.declare("vitals.temperature", "vitals",
                   {{"temp_c", ValueType::kDouble, true}});
  registry.declare("vitals.bloodpressure", "vitals",
                   {{"systolic", ValueType::kDouble, true},
                    {"diastolic", ValueType::kDouble, true}});

  registry.declare("alarm", {{"level", ValueType::kString, true}});
  registry.declare("alarm.cardiac", "alarm",
                   {{"hr", ValueType::kDouble, false}});
  registry.declare("alarm.desaturation", "alarm",
                   {{"spo2", ValueType::kDouble, false}});
  registry.declare("alarm.fever", "alarm",
                   {{"temp_c", ValueType::kDouble, false}});

  registry.declare("actuator", {{"member", ValueType::kInt, false}});
  registry.declare("actuator.defib.fire", "actuator",
                   {{"joules", ValueType::kDouble, true}});
  registry.declare("actuator.insulin.dose", "actuator",
                   {{"units", ValueType::kDouble, true}});

  registry.declare("smc.member", {{"member", ValueType::kInt, true},
                                  {"device_type", ValueType::kString, true},
                                  {"role", ValueType::kString, false}});
  registry.declare("smc.member.new", "smc.member", {});
  registry.declare("smc.member.purge", "smc.member",
                   {{"reason", ValueType::kString, false}});
  registry.declare("smc.member.suspect", "smc.member", {});
  registry.declare("smc.member.recovered", "smc.member", {});
}

}  // namespace amuse
