#include "service/wire.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "util/json.h"

namespace impreg {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal escaping for the echoed id (the only free-form string we
/// emit): backslash, quote, and control characters.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool ReadNumber(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.FindOfType(key, JsonValue::Type::kNumber);
  if (v == nullptr) return false;
  *out = v->AsDouble();
  return true;
}

/// True iff `d` is an integral double that fits std::int64_t exactly —
/// the guard that keeps `static_cast<std::int64_t>(d)` defined
/// behavior (a double ≥ 2^63 or NaN makes the bare cast UB).
bool IsExactInt64(double d) {
  return std::isfinite(d) && d == std::floor(d) &&
         d >= -9223372036854775808.0 && d < 9223372036854775808.0;
}

bool ReadInt(const JsonValue& obj, const char* key, std::int64_t* out) {
  double d = 0.0;
  if (!ReadNumber(obj, key, &d)) return false;
  // Non-integral or out-of-range numbers are treated as absent, never
  // truncated: a caller that must distinguish (edit endpoints) reads
  // the raw number itself and reports the parse error.
  if (!IsExactInt64(d)) return false;
  *out = static_cast<std::int64_t>(d);
  return true;
}

/// Reads an int query parameter. A non-integral number is absent, as in
/// ReadInt; an integral one outside int range is an error, never a cast.
bool ReadIntParameter(const JsonValue& obj, const char* key, int* out,
                      std::string* error) {
  double d = 0.0;
  if (!ReadNumber(obj, key, &d) || !std::isfinite(d) || d != std::floor(d)) {
    return true;
  }
  if (d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    *error = std::string("\"") + key + "\" must be an integer in int range";
    return false;
  }
  *out = static_cast<int>(d);
  return true;
}

/// Reads one edit-endpoint id: must be present, integral, and in
/// NodeId range. Anything else is a hard parse error.
bool ReadNodeId(const JsonValue& obj, const char* key, NodeId* out) {
  double d = 0.0;
  if (!ReadNumber(obj, key, &d)) return false;
  if (!IsExactInt64(d) || d < -2147483648.0 || d > 2147483647.0) {
    return false;
  }
  *out = static_cast<NodeId>(d);
  return true;
}

}  // namespace

bool ParseQueryRequest(const std::string& json_line, QueryRequest* out,
                       std::string* error) {
  *out = QueryRequest{};
  JsonParseResult parsed = JsonParse(json_line);
  if (!parsed.ok()) {
    *error = parsed.error;
    return false;
  }
  const JsonValue& obj = parsed.value;
  if (!obj.is_object()) {
    *error = "request line is not a JSON object";
    return false;
  }

  const JsonValue* id = obj.FindOfType("id", JsonValue::Type::kString);
  if (id != nullptr) out->id = id->AsString();

  std::string op = "query";
  const JsonValue* op_value = obj.FindOfType("op", JsonValue::Type::kString);
  if (op_value != nullptr) op = op_value->AsString();

  if (op == "add-edge" || op == "remove-edge") {
    out->is_add_edge = op == "add-edge";
    out->is_remove_edge = !out->is_add_edge;
    if (!ReadNodeId(obj, "u", &out->u) || !ReadNodeId(obj, "v", &out->v)) {
      *error = op + " requires integral \"u\" and \"v\" in node-id range";
      return false;
    }
    // Defaults differ: an add accumulates 1.0; a remove's 0.0 means
    // "remove the edge entirely".
    out->weight = out->is_add_edge ? 1.0 : 0.0;
    double weight = 0.0;
    if (ReadNumber(obj, "weight", &weight)) {
      const bool valid = out->is_add_edge
                             ? std::isfinite(weight) && weight > 0.0
                             : std::isfinite(weight) && weight >= 0.0;
      if (!valid) {
        *error = out->is_add_edge
                     ? "add-edge weight must be a finite positive number"
                     : "remove-edge weight must be a finite non-negative "
                       "number (0 = remove entirely)";
        return false;
      }
      out->weight = weight;
    }
    return true;
  }
  if (op != "query") {
    *error = "unknown op \"" + op +
             "\" (expected \"query\", \"add-edge\", or \"remove-edge\")";
    return false;
  }

  const JsonValue* method =
      obj.FindOfType("method", JsonValue::Type::kString);
  if (method != nullptr &&
      !QueryMethodFromName(method->AsString(), &out->query.method)) {
    *error = "unknown method \"" + method->AsString() +
             "\" (expected ppr, ppr-dense, heat-kernel, or nibble)";
    return false;
  }

  const JsonValue* seeds = obj.FindOfType("seeds", JsonValue::Type::kArray);
  if (seeds == nullptr || seeds->Items().empty()) {
    *error = "query requires a non-empty \"seeds\" array";
    return false;
  }
  for (const JsonValue& s : seeds->Items()) {
    const double d = s.is_number() ? s.AsDouble() : -1.0;
    if (!s.is_number() || !IsExactInt64(d) || d < -2147483648.0 ||
        d > 2147483647.0) {
      *error = "\"seeds\" entries must be integers in node-id range";
      return false;
    }
    out->query.seeds.push_back(static_cast<NodeId>(d));
  }

  ReadNumber(obj, "gamma", &out->query.gamma);
  ReadNumber(obj, "epsilon", &out->query.epsilon);
  ReadNumber(obj, "tolerance", &out->query.tolerance);
  if (!ReadIntParameter(obj, "max_iterations", &out->query.max_iterations,
                        error)) {
    return false;
  }
  ReadNumber(obj, "t", &out->query.t);
  ReadNumber(obj, "delta", &out->query.delta);
  if (!ReadIntParameter(obj, "steps", &out->query.steps, error)) return false;
  ReadInt(obj, "max_work", &out->query.max_work);
  const JsonValue* tenant = obj.FindOfType("tenant", JsonValue::Type::kString);
  if (tenant != nullptr) out->query.tenant = tenant->AsString();
  std::int64_t top = 0;
  if (ReadInt(obj, "top", &top)) {
    // Saturates, never wraps: a `top` past INT_MAX ranks the support.
    out->top = static_cast<int>(std::clamp<std::int64_t>(
        top, 0, std::numeric_limits<int>::max()));
  }
  return true;
}

std::string QueryResponseToJson(const QueryRequest& request,
                                const QueryResponse& response,
                                std::int64_t epoch) {
  // Top-k by score descending, node id ascending on ties; only
  // positive-score nodes compete, and they are the support. The order
  // is strict and total, so the top k is unique: one scan keeps the k
  // best seen so far in a heap whose front is the worst of them, and
  // only those k are sorted. `top` comes from the client, so the heap
  // is sized by what can be ranked, never by `top` alone.
  using Ranked = std::pair<double, NodeId>;
  const auto better = [](const Ranked& a, const Ranked& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  const std::size_t top = static_cast<std::size_t>(std::max(request.top, 0));
  const double* scores = response.scores.data();
  const auto n = static_cast<NodeId>(response.scores.size());
  std::vector<Ranked> ranked;
  ranked.reserve(std::min(top, response.scores.size()));
  std::size_t support = 0;
  for (NodeId u = 0; u < n; ++u) {
    const double score = scores[u];
    if (!(score > 0.0)) continue;
    ++support;
    if (ranked.size() < top) {
      ranked.emplace_back(score, u);
      std::push_heap(ranked.begin(), ranked.end(), better);
    } else if (top > 0 && better({score, u}, ranked.front())) {
      std::pop_heap(ranked.begin(), ranked.end(), better);
      ranked.back() = {score, u};
      std::push_heap(ranked.begin(), ranked.end(), better);
    }
  }
  std::sort(ranked.begin(), ranked.end(), better);

  std::string out = "{\"schema\":\"impreg-query-response-v1\"";
  out += ",\"id\":\"" + EscapeJson(request.id) + "\"";
  out += ",\"method\":\"";
  out += QueryMethodName(request.query.method);
  out += "\"";
  out += ",\"status\":\"";
  out += SolveStatusName(response.status);
  out += "\"";
  out += ",\"source\":\"";
  out += QuerySourceName(response.source);
  out += "\"";
  out += ",\"degraded\":";
  out += response.degraded ? "true" : "false";
  out += ",\"shed\":";
  out += response.shed ? "true" : "false";
  out += ",\"tenant\":\"" + EscapeJson(response.tenant) + "\"";
  out += ",\"epoch\":" + std::to_string(epoch);
  out += ",\"support\":" + std::to_string(support);
  out += ",\"work\":" + std::to_string(response.work);
  out += ",\"conductance\":" + FormatDouble(response.conductance);
  out += ",\"set\":[";
  for (std::size_t i = 0; i < response.set.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(response.set[i]);
  }
  out += "]";
  out += ",\"top\":[";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(ranked[i].second);
    out += ',';
    out += FormatDouble(ranked[i].first);
    out += ']';
  }
  out += "]}";
  return out;
}

}  // namespace impreg
