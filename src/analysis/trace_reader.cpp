#include "analysis/trace_reader.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "telemetry/json_value.h"
#include "telemetry/jsonl_sink.h"

namespace radiomc::analysis {

namespace {

using telemetry::JsonValue;

// Typed access to one record's fields. A known key that is present with
// the wrong type or out of its field's range is an error, never a silent
// default. The first error wins; decoders check `error()` once at the end.
class Record {
 public:
  explicit Record(const JsonValue& v) : v_(v) {}

  const std::string& error() const noexcept { return error_; }

  void fail(std::string msg) {
    if (error_.empty()) error_ = std::move(msg);
  }

  /// Optional unsigned field: false (and *out untouched) when absent or
  /// bad; present, it must be an integer that fits T.
  template <class T>
  bool uint(std::string_view key, T* out) {
    const JsonValue* f = v_.find(key);
    if (f == nullptr) return false;
    const auto u = f->as_uint(std::numeric_limits<T>::max());
    if (!u) {
      fail("field \"" + std::string(key) +
           "\" is not an unsigned integer in range");
      return false;
    }
    *out = static_cast<T>(*u);
    return true;
  }

  /// Required unsigned field; `missing` is the error when it is absent.
  template <class T>
  void need(std::string_view key, T* out, const char* missing) {
    if (v_.find(key) == nullptr) fail(missing);
    uint(key, out);
  }

  /// Optional string field; nullptr when absent or bad.
  const std::string* str(std::string_view key) {
    const JsonValue* f = typed(key, JsonValue::Kind::kString, "a string");
    return f != nullptr ? &f->as_string() : nullptr;
  }

  void boolean(std::string_view key, bool* out) {
    if (const JsonValue* f = typed(key, JsonValue::Kind::kBool, "a boolean"))
      *out = f->as_bool();
  }

  const JsonValue* array(std::string_view key) {
    return typed(key, JsonValue::Kind::kArray, "an array");
  }

 private:
  const JsonValue* typed(std::string_view key, JsonValue::Kind kind,
                         const char* what) {
    const JsonValue* f = v_.find(key);
    if (f == nullptr || f->kind() == kind) return f;
    fail("field \"" + std::string(key) + "\" is not " + what);
    return nullptr;
  }

  const JsonValue& v_;
  std::string error_;
};

void parse_schema(Record& r, Trace* tr) {
  TraceSchema& sc = tr->schema;
  const std::string* v = r.str("v");
  if (v == nullptr)
    return r.fail("schema record missing version string \"v\"");
  sc.version = *v;
  if (sc.version != telemetry::kTraceSchemaVersion) {
    return r.fail("unsupported trace schema version \"" + sc.version +
                  "\" (this reader understands \"" +
                  telemetry::kTraceSchemaVersion + "\")");
  }
  if (const std::string* p = r.str("protocol")) sc.protocol = *p;
  SlotStructure slots;
  const bool has_slots = r.uint("decay_len", &slots.decay_len);
  r.boolean("ack", &slots.ack_subslots);
  r.boolean("mod3", &slots.mod3_gating);
  if (has_slots) sc.slots = slots;
  r.uint("agg", &sc.aggregate_every);
  if (const JsonValue* levels = r.array("levels")) {
    sc.levels.reserve(levels->items().size());
    for (const JsonValue& l : levels->items()) {
      const auto u = l.as_uint(std::numeric_limits<std::uint32_t>::max());
      if (!u) return r.fail("bad \"levels\" element");
      sc.levels.push_back(static_cast<std::uint32_t>(*u));
    }
  }
}

void parse_event(Record& r, EvKind kind, Trace* tr) {
  TraceEvent e;
  e.ev = kind;
  r.need("t", &e.t, "event record missing slot \"t\"");
  r.need("node", &e.node, "event record missing \"node\"");
  r.uint("ch", &e.ch);
  if (kind == EvKind::kCollision) {
    r.need("txn", &e.tx_neighbors, "coll record missing \"txn\"");
  } else {
    const std::string* name = r.str("kind");
    if (name == nullptr) {
      r.fail("tx/rx record missing message \"kind\"");
    } else if (const auto mk = telemetry::msg_kind_from_name(*name)) {
      e.kind = *mk;
    } else {
      r.fail("unknown message kind \"" + *name + "\"");
    }
    r.uint("origin", &e.origin);
    r.uint("seq", &e.seq);
    r.uint("dest", &e.dest);
    r.uint("from", &e.from);
    r.uint("fp", &e.from_parent);
  }
  if (!r.error().empty()) return;

  tr->last_slot = std::max(tr->last_slot, e.t);
  switch (kind) {
    case EvKind::kTx: ++tr->tx_count; break;
    case EvKind::kRx: ++tr->rx_count; break;
    case EvKind::kCollision:
      if (e.tx_neighbors >= 2) ++tr->collision_count;
      else ++tr->jam_count;
      break;
  }
  tr->events.push_back(e);
}

void parse_agg(Record& r, Trace* tr) {
  TraceWindow w;
  const bool has_t0 = r.uint("t0", &w.t0);
  const bool has_t1 = r.uint("t1", &w.t1);
  if (!has_t0 || !has_t1) r.fail("agg record missing window bounds");
  r.uint("tx", &w.tx);
  r.uint("rx", &w.rx);
  r.uint("coll", &w.coll);
  r.uint("jam", &w.jam);
  tr->windows.push_back(w);
}

void parse_truncated(Record& r, Trace* tr) {
  tr->truncated = true;
  r.uint("t", &tr->truncated_at);
  r.uint("dropped", &tr->dropped_events);
}

}  // namespace

TraceReadResult read_trace(std::istream& in) {
  TraceReadResult res;
  std::string line;
  std::uint64_t line_no = 0;
  bool saw_schema = false;
  auto fail = [&](std::string error) {
    res.error = std::move(error);
    res.line_no = line_no;
    return std::move(res);
  };
  while (std::getline(in, line)) {
    ++line_no;
    // Blank lines are skipped; '\r' also covers \r\n fixtures.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    const telemetry::JsonParseResult parsed = telemetry::parse_json(line);
    if (!parsed.ok) return fail("malformed JSONL: " + parsed.error);
    const JsonValue* ev_field = parsed.value.find("ev");
    if (ev_field == nullptr || !ev_field->is_string())
      return fail("record missing \"ev\" discriminator");
    const std::string& ev = ev_field->as_string();

    if (!saw_schema) {
      if (ev != "schema")
        return fail("first record must be the schema header (got \"" + ev +
                    "\")");
    } else if (ev == "schema") {
      return fail("duplicate schema record");
    }

    Record r(parsed.value);
    if (ev == "schema") {
      parse_schema(r, &res.trace);
      saw_schema = true;
    } else if (ev == "tx") {
      parse_event(r, EvKind::kTx, &res.trace);
    } else if (ev == "rx") {
      parse_event(r, EvKind::kRx, &res.trace);
    } else if (ev == "coll") {
      parse_event(r, EvKind::kCollision, &res.trace);
    } else if (ev == "agg") {
      parse_agg(r, &res.trace);
    } else if (ev == "truncated") {
      parse_truncated(r, &res.trace);
    } else {
      r.fail("unknown record type \"" + ev + "\"");
    }
    if (!r.error().empty()) return fail(r.error());
  }
  if (!saw_schema) {
    res.error = "empty stream: no schema header";
    return res;
  }
  res.ok = true;
  return res;
}

TraceReadResult read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    TraceReadResult res;
    res.error = "cannot open trace file: " + path;
    return res;
  }
  return read_trace(in);
}

}  // namespace radiomc::analysis
