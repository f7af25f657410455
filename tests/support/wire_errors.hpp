// Decode-error helpers for the wire tests: what a decoder throws for a
// frame, and the version-gate message a foreign tag must draw.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "export/wire.hpp"

namespace nitro::testing {

/// What `decode` throws for `frame` ("" when it decodes).
template <typename Decode>
std::string error_of(Decode decode, std::span<const std::uint8_t> frame) {
  try {
    (void)decode(frame);
  } catch (const std::invalid_argument& e) {
    return e.what();
  } catch (const std::out_of_range&) {
    return "out_of_range";
  }
  return "";
}

/// The version gate's rejection of tag `version` in a `what` message.
inline std::string unsupported_version(const std::string& what, std::uint32_t version) {
  return what + ": unsupported version " + std::to_string(version) + " (speaks " +
         std::to_string(xport::kWireVersion) + ")";
}

}  // namespace nitro::testing
