// Trace persistence: CSV export/import of NAS traces.
//
// DeepHyper persists its search history as CSV results files that downstream
// analysis notebooks consume; these helpers play the same role — every bench
// can dump its traces for offline plotting, and the pair/τ studies can be
// recomputed from a stored trace without rerunning the search.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/virtual_cluster.hpp"

namespace swt {

/// An architecture sequence as '|'-joined op ids ("3|0|7"; empty for an
/// empty sequence), the spelling of trace CSVs and journal records.
[[nodiscard]] std::string encode_arch(const ArchSeq& arch);
/// Inverse of encode_arch; nullopt unless every token is exactly one
/// decimal int (no sign prefix, whitespace or empty token).
[[nodiscard]] std::optional<ArchSeq> decode_arch(std::string_view text);

/// Write a header plus one row per record (completion order).
void write_trace_csv(std::ostream& os, const Trace& trace);
void write_trace_csv(const std::string& path, const Trace& trace);

/// Parse a trace written by write_trace_csv.  Throws std::runtime_error on
/// malformed input.  Round-trips every EvalRecord field except none (all
/// fields are serialized).
///
/// `truncated` (optional) makes the reader crash-tolerant: a damaged or
/// half-written *final* row — the artifact of a process killed mid-write —
/// is dropped, the clean record prefix is returned and `*truncated` is set.
/// A malformed row with intact rows after it is real corruption and still
/// throws with full line/column diagnostics, as does every error when
/// `truncated` is null (the historical strict behaviour).
[[nodiscard]] Trace read_trace_csv(std::istream& is, bool* truncated = nullptr);
[[nodiscard]] Trace read_trace_csv(const std::string& path, bool* truncated = nullptr);

}  // namespace swt
