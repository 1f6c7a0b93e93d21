#include "proxy/proxy.hpp"

#include "proxy/device_codec.hpp"

namespace amuse {

BusPort::~BusPort() = default;
Proxy::~Proxy() = default;
DeviceCodec::~DeviceCodec() = default;

void Proxy::send_control(const BusMessage& message) { (void)message; }

}  // namespace amuse
