#include "telemetry/jsonl_sink.h"

#include "telemetry/json_writer.h"

namespace radiomc::telemetry {

bool is_trace_line_kind(std::string_view ev) noexcept {
  for (std::string_view k : kTraceLineKinds)
    if (k == ev) return true;
  return false;
}

std::optional<MsgKind> msg_kind_from_name(std::string_view name) noexcept {
  for (const auto& [kind, kind_name] : kMsgKindNames)
    if (kind_name == name) return kind;
  return std::nullopt;
}

namespace {

std::string_view kind_name(MsgKind k) {
  for (const auto& [kind, name] : kMsgKindNames)
    if (kind == k) return name;
  return "unknown";
}

}  // namespace

JsonlTraceSink::JsonlTraceSink(std::ostream& out, Options opt)
    : out_(&out), opt_(opt) {}

JsonlTraceSink::JsonlTraceSink(const std::string& path, Options opt)
    : owned_(std::make_unique<std::ofstream>(path)),
      out_(owned_.get()),
      opt_(opt) {}

JsonlTraceSink::~JsonlTraceSink() { finish(); }

void JsonlTraceSink::set_protocol(std::string protocol) {
  if (!schema_written_) protocol_ = std::move(protocol);
}

void JsonlTraceSink::set_slot_structure(const SlotStructure& slots) {
  if (!schema_written_) slots_ = slots;
}

void JsonlTraceSink::set_levels(std::vector<std::uint32_t> levels) {
  if (!schema_written_) levels_ = std::move(levels);
}

void JsonlTraceSink::write_line(const std::string& line) {
  *out_ << line << '\n';
  ++lines_;
}

void JsonlTraceSink::emit_schema() {
  if (schema_written_) return;
  schema_written_ = true;
  std::string line;
  JsonWriter w(&line);
  w.begin_object();
  w.member("ev", "schema");
  w.member("v", kTraceSchemaVersion);
  if (!protocol_.empty()) w.member("protocol", protocol_);
  if (slots_) {
    w.member("decay_len", static_cast<std::uint64_t>(slots_->decay_len));
    w.member("ack", slots_->ack_subslots);
    w.member("mod3", slots_->mod3_gating);
  }
  if (opt_.aggregate_every != 0) w.member("agg", opt_.aggregate_every);
  if (!levels_.empty()) {
    w.key("levels");
    w.begin_array();
    for (std::uint32_t l : levels_) w.value(static_cast<std::uint64_t>(l));
    w.end_array();
  }
  w.end_object();
  write_line(line);
}

void JsonlTraceSink::roll_window(SlotTime t) {
  if (opt_.aggregate_every == 0) return;
  const SlotTime start = t - t % opt_.aggregate_every;
  if (win_any_ && start != win_start_) emit_window();
  if (!win_any_ || start != win_start_) {
    win_start_ = start;
    win_any_ = true;
    win_tx_ = win_rx_ = win_coll_ = win_jam_ = 0;
  }
}

void JsonlTraceSink::emit_window() {
  emit_schema();
  std::string line;
  JsonWriter w(&line);
  w.begin_object();
  w.member("ev", "agg");
  w.member("t0", win_start_);
  w.member("t1", win_start_ + opt_.aggregate_every);
  w.member("tx", win_tx_);
  w.member("rx", win_rx_);
  w.member("coll", win_coll_);
  w.member("jam", win_jam_);
  w.end_object();
  write_line(line);
  win_any_ = false;
}

void JsonlTraceSink::event_line(const char* ev, SlotTime t, NodeId node,
                                ChannelId ch, const Message* m,
                                std::uint32_t tx_neighbors) {
  if (!opt_.events) return;
  if (opt_.max_events != 0 && events_written_ >= opt_.max_events) {
    if (dropped_ == 0) first_dropped_slot_ = t;
    ++dropped_;
    return;
  }
  emit_schema();
  std::string line;
  JsonWriter w(&line);
  w.begin_object();
  w.member("ev", ev);
  w.member("t", t);
  w.member("node", static_cast<std::uint64_t>(node));
  w.member("ch", static_cast<std::uint64_t>(ch));
  if (m != nullptr) {
    w.member("kind", kind_name(m->kind));
    w.member("origin", static_cast<std::uint64_t>(m->origin));
    w.member("seq", static_cast<std::uint64_t>(m->seq));
    // Lifecycle-bearing annotations, omitted when the field is a sentinel
    // so simple protocol stacks keep compact lines: the final destination
    // (ack matching needs the acked child), and — on deliveries only —
    // the immediate transmitter and its BFS parent (§4's accept rule is
    // "sender_parent == me", which is how the reader identifies accepted
    // child -> parent hops).
    if (m->dest != kNoNode && m->dest != kAllNodes)
      w.member("dest", static_cast<std::uint64_t>(m->dest));
    if (ev[0] == 'r') {  // "rx"
      if (m->sender != kNoNode)
        w.member("from", static_cast<std::uint64_t>(m->sender));
      if (m->sender_parent != kNoNode)
        w.member("fp", static_cast<std::uint64_t>(m->sender_parent));
    }
  } else {
    w.member("txn", static_cast<std::uint64_t>(tx_neighbors));
  }
  w.end_object();
  write_line(line);
  ++events_written_;
}

void JsonlTraceSink::on_transmit(SlotTime t, NodeId sender, ChannelId ch,
                                 const Message& m) {
  roll_window(t);
  ++win_tx_;
  event_line("tx", t, sender, ch, &m, 0);
}

void JsonlTraceSink::on_deliver(SlotTime t, NodeId receiver, ChannelId ch,
                                const Message& m) {
  roll_window(t);
  ++win_rx_;
  event_line("rx", t, receiver, ch, &m, 0);
}

void JsonlTraceSink::on_collision(SlotTime t, NodeId receiver, ChannelId ch,
                                  std::uint32_t tx_neighbors) {
  roll_window(t);
  // txn == 1 is a jam-killed clean reception (fault injection); txn >= 2 a
  // genuine collision. Aggregating them together would inflate collision
  // statistics under jamming.
  if (tx_neighbors >= 2) {
    ++win_coll_;
  } else {
    ++win_jam_;
  }
  event_line("coll", t, receiver, ch, nullptr, tx_neighbors);
}

void JsonlTraceSink::finish() {
  if (finished_) return;
  finished_ = true;
  emit_schema();
  if (opt_.aggregate_every != 0 && win_any_) emit_window();
  if (dropped_ > 0) {
    std::string line;
    JsonWriter w(&line);
    w.begin_object();
    w.member("ev", "truncated");
    w.member("t", first_dropped_slot_);
    w.member("dropped", dropped_);
    w.end_object();
    write_line(line);
  }
  out_->flush();
}

}  // namespace radiomc::telemetry
