#include "cache.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace portabench::tune {

std::string_view cache_status_name(CacheLoadStatus s) noexcept {
  switch (s) {
    case CacheLoadStatus::kOk: return "ok";
    case CacheLoadStatus::kMissing: return "missing";
    case CacheLoadStatus::kParseError: return "parse-error";
    case CacheLoadStatus::kVersionMismatch: return "version-mismatch";
    case CacheLoadStatus::kSchemaError: return "schema-error";
  }
  return "unknown";
}

namespace {

CacheLoadResult fail(CacheLoadStatus status, const std::string& origin,
                     const std::string& detail) {
  CacheLoadResult r;
  r.status = status;
  r.warning = "tuning cache " + origin + ": " + std::string(cache_status_name(status)) +
              ": " + detail + " (starting empty)";
  return r;
}

/// True when `d` is an integer in [lo, hi).  The checks stay in double:
/// casting an out-of-range or infinite double to an integer type is
/// undefined, and NaN fails every comparison.
bool integral_in(double d, double lo, double hi) {
  return d >= lo && d < hi && d == std::trunc(d);
}

/// Integral field in [lo, hi); false on absence / wrong kind /
/// non-integral / out-of-range values.
bool integral_at(const JsonValue& obj, const std::string& key, double lo, double hi,
                 double* out) {
  const auto v = obj.number_at(key);
  if (!v.has_value() || !integral_in(*v, lo, hi)) return false;
  *out = *v;
  return true;
}

/// A JSON number as text, without an integer cast (it may be huge).
std::string format_number(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

bool parse_entry(const JsonValue& e, CacheEntry* out) {
  if (!e.is_object()) return false;
  const auto space = e.string_at("space");
  if (!space.has_value() || space->empty()) return false;
  out->space = *space;
  out->precision = e.string_at("precision").value_or("-");
  double num = 0.0;
  if (!integral_at(e, "size_class", 0.0, 0x1p32, &num)) return false;
  out->size_class = static_cast<std::uint32_t>(num);
  // The 64-bit fingerprint hash does not fit a double losslessly, so it
  // is persisted as a hex string.
  const auto fp = e.string_at("fingerprint");
  if (!fp.has_value()) return false;
  unsigned long long parsed = 0;
  if (std::sscanf(fp->c_str(), "0x%llx", &parsed) != 1) return false;
  out->fingerprint = parsed;
  out->machine = e.string_at("machine").value_or("");
  const JsonValue* config = e.find("config");
  if (config == nullptr || !config->is_object()) return false;
  for (const auto& [name, value] : config->as_object()) {
    if (!value.is_number()) return false;
    const double d = value.as_number();
    if (!integral_in(d, -0x1p63, 0x1p63)) return false;  // long's range
    out->config[name] = static_cast<long>(d);
  }
  out->tuned_ms = e.number_at("tuned_ms").value_or(0.0);
  out->default_ms = e.number_at("default_ms").value_or(0.0);
  return true;
}

}  // namespace

CacheLoadResult TuningCache::load(const std::string& path) {
  entries_.clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(CacheLoadStatus::kMissing, path, "cannot open file");
  std::ostringstream text;
  text << in.rdbuf();
  return load_text(text.str(), path);
}

CacheLoadResult TuningCache::load_text(std::string_view text, const std::string& origin) {
  entries_.clear();
  const JsonParseResult parsed = parse_json(text);
  if (!parsed.ok) return fail(CacheLoadStatus::kParseError, origin, parsed.error);
  const JsonValue& root = parsed.value;
  if (!root.is_object()) {
    return fail(CacheLoadStatus::kSchemaError, origin, "root is not an object");
  }
  const auto version = root.number_at("schema_version");
  if (!version.has_value()) {
    return fail(CacheLoadStatus::kSchemaError, origin, "missing schema_version");
  }
  if (*version != static_cast<double>(kCacheSchemaVersion)) {
    return fail(CacheLoadStatus::kVersionMismatch, origin,
                "schema_version " + format_number(*version) + " != " +
                    std::to_string(kCacheSchemaVersion));
  }
  const JsonValue* entries = root.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return fail(CacheLoadStatus::kSchemaError, origin, "missing entries array");
  }
  std::vector<CacheEntry> loaded;
  for (std::size_t i = 0; i < entries->as_array().size(); ++i) {
    CacheEntry entry;
    if (!parse_entry(entries->as_array()[i], &entry)) {
      // One malformed entry poisons the whole file: a partially-applied
      // cache is harder to reason about than an empty one.
      return fail(CacheLoadStatus::kSchemaError, origin,
                  "malformed entry at index " + std::to_string(i));
    }
    loaded.push_back(std::move(entry));
  }
  entries_ = std::move(loaded);
  CacheLoadResult r;
  r.status = CacheLoadStatus::kOk;
  return r;
}

std::string TuningCache::serialize() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version");
  w.value(static_cast<long>(kCacheSchemaVersion));
  w.key("entries");
  w.begin_array();
  for (const CacheEntry& e : entries_) {
    w.begin_object();
    w.key("space");
    w.value(e.space);
    w.key("precision");
    w.value(e.precision);
    w.key("size_class");
    w.value(static_cast<std::size_t>(e.size_class));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(e.fingerprint));
    w.key("fingerprint");
    w.value(std::string(hex));
    w.key("machine");
    w.value(e.machine);
    w.key("config");
    w.begin_object();
    for (const auto& [name, value] : e.config) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
    w.key("tuned_ms");
    w.value(e.tuned_ms);
    w.key("default_ms");
    w.value(e.default_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool TuningCache::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << serialize() << '\n';
  return static_cast<bool>(out);
}

const CacheEntry* TuningCache::find(std::string_view space, std::string_view precision,
                                    std::uint32_t size_class,
                                    std::uint64_t fingerprint) const {
  for (const CacheEntry& e : entries_) {
    if (e.space == space && e.precision == precision && e.size_class == size_class &&
        e.fingerprint == fingerprint) {
      return &e;
    }
  }
  return nullptr;
}

void TuningCache::put(CacheEntry entry) {
  for (CacheEntry& e : entries_) {
    if (e.space == entry.space && e.precision == entry.precision &&
        e.size_class == entry.size_class && e.fingerprint == entry.fingerprint) {
      e = std::move(entry);
      return;
    }
  }
  entries_.push_back(std::move(entry));
}

}  // namespace portabench::tune
