// Reads the flat "counters" object of a metrics provider's JSON render
// (Runtime::metrics_json, Vm::metrics_json) into a key -> value map, so
// tests can check that every stats field is rendered under its key.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

namespace test_util {

/// Keys and values of the first `"counters":{...}` object in `json`.  A
/// missing object or a malformed entry yields an entry under the key ""
/// (which no counter has), so callers' key-set checks fail loudly.
inline std::map<std::string, std::uint64_t> parse_counters(const std::string& json) {
  std::map<std::string, std::uint64_t> out;
  const std::string open = "\"counters\":{";
  std::size_t pos = json.find(open);
  if (pos == std::string::npos) return {{"", 0}};
  pos += open.size();
  const std::size_t end = json.find('}', pos);
  if (end == std::string::npos) return {{"", 0}};
  while (pos < end) {
    const std::size_t q1 = json.find('"', pos);
    const std::size_t q2 = json.find('"', q1 + 1);
    if (q1 >= end || q2 >= end || json[q2 + 1] != ':') return {{"", 0}};
    char* num_end = nullptr;
    const unsigned long long v = std::strtoull(json.c_str() + q2 + 2, &num_end, 10);
    if (num_end == json.c_str() + q2 + 2) return {{"", 0}};
    out[json.substr(q1 + 1, q2 - q1 - 1)] = v;
    pos = static_cast<std::size_t>(num_end - json.c_str());
    if (json[pos] == ',') ++pos;
  }
  return out;
}

}  // namespace test_util
