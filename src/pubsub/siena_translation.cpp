#include "pubsub/siena_translation.hpp"

#include <cstdio>
#include <cstdlib>

namespace amuse {
namespace {

std::string format_value(ValueView v) {
  switch (v.type()) {
    case ValueType::kInt:
      return "int:" + std::to_string(v.as_int());
    case ValueType::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "double:%.17g", v.as_double());
      return buf;
    }
    case ValueType::kBool:
      return v.as_bool() ? "bool:true" : "bool:false";
    case ValueType::kString:
      return "str:" + std::to_string(v.as_string().size()) + ":" +
             std::string(v.as_string());
    case ValueType::kBytes:
      return "bytes:" + std::to_string(v.as_bytes().size()) + ":" +
             to_hex(v.as_bytes());
  }
  throw DecodeError("format_value: bad value type");
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw DecodeError("bad hex digit in siena value");
}

Value parse_value(const std::string& text) {
  auto colon = text.find(':');
  if (colon == std::string::npos) throw DecodeError("siena value: no tag");
  std::string tag = text.substr(0, colon);
  std::string body = text.substr(colon + 1);
  if (tag == "int") {
    return Value(static_cast<std::int64_t>(std::strtoll(body.c_str(), nullptr, 10)));
  }
  if (tag == "double") {
    return Value(std::strtod(body.c_str(), nullptr));
  }
  if (tag == "bool") {
    if (body == "true") return Value(true);
    if (body == "false") return Value(false);
    throw DecodeError("siena bool: " + body);
  }
  if (tag == "str" || tag == "bytes") {
    auto colon2 = body.find(':');
    if (colon2 == std::string::npos) {
      throw DecodeError("siena " + tag + ": missing length");
    }
    std::size_t len = std::strtoull(body.substr(0, colon2).c_str(), nullptr, 10);
    std::string payload = body.substr(colon2 + 1);
    if (tag == "str") {
      if (payload.size() != len) throw DecodeError("siena str: bad length");
      return Value(payload);
    }
    if (payload.size() != len * 2) throw DecodeError("siena bytes: bad length");
    Bytes out;
    out.reserve(len);
    for (std::size_t i = 0; i < payload.size(); i += 2) {
      out.push_back(static_cast<std::uint8_t>(hex_nibble(payload[i]) * 16 +
                                              hex_nibble(payload[i + 1])));
    }
    return Value(std::move(out));
  }
  throw DecodeError("siena value: unknown tag " + tag);
}

Op parse_op(const std::string& tok) {
  if (tok == "==") return Op::kEq;
  if (tok == "!=") return Op::kNe;
  if (tok == "<") return Op::kLt;
  if (tok == "<=") return Op::kLe;
  if (tok == ">") return Op::kGt;
  if (tok == ">=") return Op::kGe;
  if (tok == "=^") return Op::kPrefix;
  if (tok == "=$") return Op::kSuffix;
  if (tok == "=~") return Op::kContains;
  if (tok == "exists") return Op::kExists;
  throw DecodeError("siena filter: unknown op " + tok);
}

}  // namespace

SienaNotification to_siena(const Event& e) {
  SienaNotification n;
  for (const auto& [name, value] : e.attributes()) {
    n.attrs.emplace(name, format_value(value));
  }
  // Bus metadata travels as reserved attributes, exactly the kind of
  // "arbitrary tags" (§VI) the prototype relied on.
  n.attrs.emplace("x-publisher", "int:" + std::to_string(e.publisher().raw()));
  n.attrs.emplace("x-pubseq", "int:" + std::to_string(e.publisher_seq()));
  n.attrs.emplace(
      "x-ts", "int:" + std::to_string(e.timestamp().time_since_epoch().count()));
  return n;
}

Event from_siena(const SienaNotification& n) {
  Event e;
  for (const auto& [name, text] : n.attrs) {
    if (name == "x-publisher") {
      e.set_publisher(ServiceId(static_cast<std::uint64_t>(
          parse_value(text).as_int())));
      continue;
    }
    if (name == "x-pubseq") {
      e.set_publisher_seq(static_cast<std::uint64_t>(parse_value(text).as_int()));
      continue;
    }
    if (name == "x-ts") {
      e.set_timestamp(TimePoint(Duration(parse_value(text).as_int())));
      continue;
    }
    e.set(name, parse_value(text));
  }
  return e;
}

std::string to_siena_filter(const Filter& f) {
  std::string out;
  for (std::size_t i = 0; i < f.constraints().size(); ++i) {
    const Constraint& c = f.constraints()[i];
    if (i) out += " && ";
    out += c.attribute;
    out += ' ';
    out += to_string(c.op);
    if (c.op != Op::kExists) {
      out += ' ';
      out += format_value(c.value);
    }
  }
  return out;
}

Filter parse_siena_filter(const std::string& text) {
  Filter f;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(" && ", pos);
    std::string clause = end == std::string::npos
                             ? text.substr(pos)
                             : text.substr(pos, end - pos);
    pos = end == std::string::npos ? text.size() : end + 4;
    if (clause.empty()) continue;

    std::size_t sp1 = clause.find(' ');
    if (sp1 == std::string::npos) throw DecodeError("siena filter: no op");
    std::string attr = clause.substr(0, sp1);
    std::size_t sp2 = clause.find(' ', sp1 + 1);
    std::string op_tok = clause.substr(
        sp1 + 1, (sp2 == std::string::npos ? clause.size() : sp2) - sp1 - 1);
    Op op = parse_op(op_tok);
    if (op == Op::kExists) {
      f.where(std::move(attr), op);
    } else {
      if (sp2 == std::string::npos) {
        throw DecodeError("siena filter: missing value");
      }
      f.where(std::move(attr), op, parse_value(clause.substr(sp2 + 1)));
    }
  }
  return f;
}

Event siena_round_trip(const Event& e) { return from_siena(to_siena(e)); }

}  // namespace amuse
