#include "config/stats.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace mcfpga::config {

BitstreamStats compute_stats(const Bitstream& bitstream) {
  BitstreamStats stats;
  stats.num_rows = bitstream.num_rows();
  stats.num_contexts = bitstream.num_contexts();
  if (stats.num_rows == 0) {
    return stats;
  }

  std::unordered_map<std::uint64_t, std::size_t> groups;
  for (const auto& row : bitstream.rows()) {
    const PatternInfo info = classify(row.pattern);
    switch (info.cls) {
      case PatternClass::kConstant:
        ++stats.constant_rows;
        break;
      case PatternClass::kSingleBit:
        ++stats.single_bit_rows;
        break;
      case PatternClass::kComplex:
        ++stats.complex_rows;
        break;
    }
    ++groups[row.pattern.word()];
    ++stats.period_histogram[smallest_period(row.pattern)];
  }

  stats.changing_row_fraction =
      static_cast<double>(stats.num_rows - stats.constant_rows) /
      static_cast<double>(stats.num_rows);

  // Change rate between consecutive configuration planes.
  double sum = 0.0;
  BitVector prev = bitstream.plane(0);
  for (std::size_t c = 1; c < stats.num_contexts; ++c) {
    BitVector cur = bitstream.plane(c);
    const double rate = static_cast<double>(prev.hamming_distance(cur)) /
                        static_cast<double>(stats.num_rows);
    sum += rate;
    stats.max_change_rate = std::max(stats.max_change_rate, rate);
    prev = std::move(cur);
  }
  stats.avg_change_rate = sum / static_cast<double>(stats.num_contexts - 1);

  stats.distinct_patterns = groups.size();
  for (const auto& [pattern, count] : groups) {
    stats.largest_identical_group =
        std::max(stats.largest_identical_group, count);
    if (count > 1) {
      stats.rows_in_shared_groups += count;
    }
  }
  return stats;
}

void print_stats(std::ostream& os, const BitstreamStats& stats,
                 const std::string& title) {
  os << "== " << title << " ==\n";
  Table t({"metric", "value"});
  t.add_row({"rows (configuration bits)", fmt_count(stats.num_rows)});
  t.add_row({"contexts", std::to_string(stats.num_contexts)});
  t.add_row({"constant rows (Fig.3 class)",
             fmt_count(stats.constant_rows) + "  (" +
                 fmt_percent(stats.constant_fraction()) + ")"});
  t.add_row({"single-ID-bit rows (Fig.4 class)",
             fmt_count(stats.single_bit_rows) + "  (" +
                 fmt_percent(stats.single_bit_fraction()) + ")"});
  t.add_row({"complex rows (Fig.5 class)",
             fmt_count(stats.complex_rows) + "  (" +
                 fmt_percent(stats.complex_fraction()) + ")"});
  t.add_row({"avg consecutive-context change rate",
             fmt_percent(stats.avg_change_rate, 2)});
  t.add_row({"max consecutive-context change rate",
             fmt_percent(stats.max_change_rate, 2)});
  t.add_row({"distinct patterns", fmt_count(stats.distinct_patterns)});
  t.add_row(
      {"largest identical-row group", fmt_count(stats.largest_identical_group)});
  t.add_row({"rows sharing a pattern", fmt_count(stats.rows_in_shared_groups)});
  for (const auto& [period, count] : stats.period_histogram) {
    t.add_row({"rows with smallest period " + std::to_string(period),
               fmt_count(count)});
  }
  t.print(os);
}

Bitstream paper_table1_example() {
  // Table 1 lists contexts left-to-right as (C3, C2, C1, C0); the rows below
  // are transcribed verbatim.  G5..G8 are not shown in the paper's table;
  // the table prints only the five switches it discusses.
  Bitstream bs(4);
  const auto add = [&bs](const std::string& name, const std::string& msb) {
    bs.add_row(name, ResourceKind::kRoutingSwitch,
               ContextPattern::from_string(msb));
  };
  add("G1", "1000");  // complex: on only in context 3
  add("G2", "0101");  // regular: repeating (0,1) -> equals ~S0
  add("G3", "0000");  // self-redundant: always off
  add("G4", "0101");  // identical to G2
  add("G9", "1111");  // self-redundant: always on
  return bs;
}

}  // namespace mcfpga::config
