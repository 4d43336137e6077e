#include "exp/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace swt {

namespace {

constexpr const char* kHeader =
    "id,arch,score,parent_id,ckpt_key,param_count,tensors_transferred,"
    "values_transferred,train_seconds,transfer_seconds,ckpt_read_cost,"
    "ckpt_write_cost,ckpt_bytes,ckpt_write_charged,ckpt_read_wait,"
    "ckpt_available_at,virtual_start,virtual_finish,worker,"
    "attempt,faults,retries,retry_seconds,transfer_fallback,first_epoch_score";

// Traces written before the first_epoch_score column existed.
constexpr const char* kHeaderV2 =
    "id,arch,score,parent_id,ckpt_key,param_count,tensors_transferred,"
    "values_transferred,train_seconds,transfer_seconds,ckpt_read_cost,"
    "ckpt_write_cost,ckpt_bytes,ckpt_write_charged,ckpt_read_wait,"
    "ckpt_available_at,virtual_start,virtual_finish,worker,"
    "attempt,faults,retries,retry_seconds,transfer_fallback";

// Traces written before the fault-tolerance columns existed.
constexpr const char* kLegacyHeader =
    "id,arch,score,parent_id,ckpt_key,param_count,tensors_transferred,"
    "values_transferred,train_seconds,transfer_seconds,ckpt_read_cost,"
    "ckpt_write_cost,ckpt_bytes,ckpt_write_charged,ckpt_read_wait,"
    "ckpt_available_at,virtual_start,virtual_finish,worker";

constexpr std::size_t kColumns = 25;
constexpr std::size_t kColumnsV2 = 24;
constexpr std::size_t kLegacyColumns = 19;

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

/// Sequential typed access to one CSV row.  Every conversion failure is
/// reported with the 1-based file line, the column name and the offending
/// cell text — a malformed trace should say *where* it is broken, not
/// surface as a bare std::invalid_argument from std::stod.
class RowReader {
 public:
  RowReader(const std::vector<std::string>& cells, std::size_t line_no)
      : cells_(&cells), line_no_(line_no) {}

  [[nodiscard]] const std::string& next_raw(const char* col) {
    if (idx_ >= cells_->size()) throw error(col, "<missing>", "missing cell");
    ++idx_;
    return (*cells_)[idx_ - 1];
  }
  [[nodiscard]] long next_long(const char* col) {
    return parse<long>(col, [](const std::string& s, std::size_t* pos) {
      return std::stol(s, pos);
    });
  }
  [[nodiscard]] int next_int(const char* col) {
    return parse<int>(col, [](const std::string& s, std::size_t* pos) {
      return std::stoi(s, pos);
    });
  }
  [[nodiscard]] std::int64_t next_i64(const char* col) {
    return parse<std::int64_t>(col, [](const std::string& s, std::size_t* pos) {
      return std::stoll(s, pos);
    });
  }
  [[nodiscard]] std::uint64_t next_u64(const char* col) {
    return parse<std::uint64_t>(col, [](const std::string& s, std::size_t* pos) {
      return std::stoull(s, pos);
    });
  }
  [[nodiscard]] unsigned next_unsigned(const char* col) {
    return parse<unsigned>(col, [](const std::string& s, std::size_t* pos) {
      return static_cast<unsigned>(std::stoul(s, pos));
    });
  }
  [[nodiscard]] double next_double(const char* col) {
    return parse<double>(col, [](const std::string& s, std::size_t* pos) {
      return std::stod(s, pos);
    });
  }

  [[nodiscard]] std::runtime_error error(const char* col, const std::string& cell,
                                         const char* why) const {
    return std::runtime_error("read_trace_csv: line " + std::to_string(line_no_) +
                              ", column '" + col + "': " + why + " \"" + cell + "\"");
  }

 private:
  template <typename T, typename Fn>
  [[nodiscard]] T parse(const char* col, Fn convert) {
    const std::string& cell = next_raw(col);
    try {
      std::size_t pos = 0;
      const T v = convert(cell, &pos);
      if (pos != cell.size()) throw std::invalid_argument("trailing characters");
      return v;
    } catch (const std::exception&) {
      throw error(col, cell, "invalid value");
    }
  }

  const std::vector<std::string>* cells_;
  std::size_t line_no_;
  std::size_t idx_ = 0;
};

}  // namespace

std::string encode_arch(const ArchSeq& arch) {
  std::string out;
  for (std::size_t i = 0; i < arch.size(); ++i) {
    if (i) out += '|';
    out += std::to_string(arch[i]);
  }
  return out;
}

std::optional<ArchSeq> decode_arch(std::string_view text) {
  ArchSeq arch;
  if (text.empty()) return arch;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t bar = std::min(text.find('|', pos), text.size());
    int v = 0;
    const auto [ptr, ec] = std::from_chars(text.data() + pos, text.data() + bar, v);
    if (ec != std::errc{} || ptr != text.data() + bar) return std::nullopt;
    arch.push_back(v);
    pos = bar + 1;
  }
  return arch;
}

void write_trace_csv(std::ostream& os, const Trace& trace) {
  os.precision(17);
  os << "# swtnas trace, num_workers=" << trace.num_workers
     << ", makespan=" << trace.makespan
     << ", crashed_attempts=" << trace.crashed_attempts
     << ", resubmissions=" << trace.resubmissions
     << ", lost_evaluations=" << trace.lost_evaluations
     << ", lost_train_seconds=" << trace.lost_train_seconds
     << ", retry_seconds=" << trace.retry_seconds
     << ", transfer_fallbacks=" << trace.transfer_fallbacks << '\n';
  os << kHeader << '\n';
  for (const auto& r : trace.records) {
    os << r.id << ',' << encode_arch(r.arch) << ',' << r.score << ',' << r.parent_id << ','
       << r.ckpt_key << ',' << r.param_count << ',' << r.tensors_transferred << ','
       << r.values_transferred << ',' << r.train_seconds << ',' << r.transfer_seconds
       << ',' << r.ckpt_read_cost << ',' << r.ckpt_write_cost << ',' << r.ckpt_bytes << ','
       << r.ckpt_write_charged << ',' << r.ckpt_read_wait << ',' << r.ckpt_available_at
       << ',' << r.virtual_start << ',' << r.virtual_finish << ',' << r.worker << ','
       << r.attempt << ',' << r.faults << ',' << r.retries << ',' << r.retry_seconds
       << ',' << (r.transfer_fallback ? 1 : 0) << ',' << r.first_epoch_score << '\n';
  }
}

void write_trace_csv(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_trace_csv: cannot open " + path);
  write_trace_csv(out, trace);
  if (!out) throw std::runtime_error("write_trace_csv: write failed for " + path);
}

Trace read_trace_csv(std::istream& is, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  Trace trace;
  std::string line;
  if (!std::getline(is, line) || !line.starts_with("# swtnas trace"))
    throw std::runtime_error("read_trace_csv: missing trace preamble");
  {
    std::istringstream meta(line);
    std::string token;
    while (std::getline(meta, token, ',')) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key.ends_with("num_workers")) trace.num_workers = std::stoi(value);
        if (key.ends_with("makespan")) trace.makespan = std::stod(value);
        if (key.ends_with("crashed_attempts")) trace.crashed_attempts = std::stol(value);
        if (key.ends_with("resubmissions")) trace.resubmissions = std::stol(value);
        if (key.ends_with("lost_evaluations")) trace.lost_evaluations = std::stol(value);
        if (key.ends_with("lost_train_seconds")) trace.lost_train_seconds = std::stod(value);
        if (key.ends_with("retry_seconds")) trace.retry_seconds = std::stod(value);
        if (key.ends_with("transfer_fallbacks")) trace.transfer_fallbacks = std::stol(value);
      } catch (const std::exception&) {
        throw std::runtime_error("read_trace_csv: line 1, preamble key '" + key +
                                 "': invalid value \"" + value + "\"");
      }
    }
  }
  if (!std::getline(is, line) ||
      (line != kHeader && line != kHeaderV2 && line != kLegacyHeader))
    throw std::runtime_error("read_trace_csv: unexpected header");
  const std::size_t want =
      line == kHeader ? kColumns : (line == kHeaderV2 ? kColumnsV2 : kLegacyColumns);
  std::size_t line_no = 2;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const auto cells = split_csv_line(line);
      if (cells.size() != want)
        throw std::runtime_error("read_trace_csv: line " + std::to_string(line_no) +
                                 ": expected " + std::to_string(want) + " columns, got " +
                                 std::to_string(cells.size()));
      RowReader row(cells, line_no);
      EvalRecord r;
      r.id = row.next_long("id");
      const std::string& arch = row.next_raw("arch");
      const std::optional<ArchSeq> decoded = decode_arch(arch);
      if (!decoded) throw row.error("arch", arch, "invalid op id in");
      r.arch = *decoded;
      r.score = row.next_double("score");
      r.parent_id = row.next_long("parent_id");
      r.ckpt_key = row.next_raw("ckpt_key");
      r.param_count = row.next_i64("param_count");
      r.tensors_transferred = row.next_u64("tensors_transferred");
      r.values_transferred = row.next_u64("values_transferred");
      r.train_seconds = row.next_double("train_seconds");
      r.transfer_seconds = row.next_double("transfer_seconds");
      r.ckpt_read_cost = row.next_double("ckpt_read_cost");
      r.ckpt_write_cost = row.next_double("ckpt_write_cost");
      r.ckpt_bytes = row.next_u64("ckpt_bytes");
      r.ckpt_write_charged = row.next_double("ckpt_write_charged");
      r.ckpt_read_wait = row.next_double("ckpt_read_wait");
      r.ckpt_available_at = row.next_double("ckpt_available_at");
      r.virtual_start = row.next_double("virtual_start");
      r.virtual_finish = row.next_double("virtual_finish");
      r.worker = row.next_int("worker");
      if (want >= kColumnsV2) {
        r.attempt = row.next_int("attempt");
        r.faults = row.next_unsigned("faults");
        r.retries = row.next_int("retries");
        r.retry_seconds = row.next_double("retry_seconds");
        r.transfer_fallback = row.next_raw("transfer_fallback") != "0";
      }
      // Older formats carry no first-epoch score; the final score is the
      // correct degenerate value (single-epoch estimation has them equal).
      r.first_epoch_score =
          want == kColumns ? row.next_double("first_epoch_score") : r.score;
      trace.records.push_back(std::move(r));
    } catch (const std::exception&) {
      if (truncated == nullptr) throw;
      // Tolerant mode: only a damaged *final* row may be dropped (the
      // half-written artifact of a killed writer).  Anything readable after
      // this row means the damage is interior — keep the diagnostics loud.
      std::string rest;
      while (std::getline(is, rest))
        if (!rest.empty()) throw;
      *truncated = true;
      break;
    }
  }
  return trace;
}

Trace read_trace_csv(const std::string& path, bool* truncated) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_trace_csv: cannot open " + path);
  return read_trace_csv(in, truncated);
}

}  // namespace swt
