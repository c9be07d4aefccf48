#include "config/serialize.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "config/context_id.hpp"

namespace mcfpga::config {

namespace {

constexpr const char* kMagic = "mcfpga-bitstream v1";

/// Strict counted-field parse: the token must be a complete decimal
/// number (no sign, no trailing garbage, no overflow wrap — see
/// common/strings.hpp).  `fail` is the format's line-numbered thrower.
template <typename Fail>
std::size_t parse_count(std::istream& ls, const char* what,
                        std::size_t line, Fail&& fail) {
  std::string token;
  if (!(ls >> token)) {
    fail(line, std::string("missing ") + what);
  }
  std::uint64_t value = 0;
  if (!try_parse_u64(token, value) ||
      value > std::numeric_limits<std::size_t>::max()) {
    fail(line, std::string("invalid ") + what + " '" + token + "'");
  }
  return static_cast<std::size_t>(value);
}

/// Rejects trailing tokens so "contexts 4 junk" is an error, not noise.
template <typename Fail>
void expect_line_end(std::istream& ls, std::size_t line, Fail&& fail) {
  std::string extra;
  if (ls >> extra) {
    fail(line, "unexpected trailing token '" + extra + "'");
  }
}

ResourceKind parse_kind(const std::string& token, std::size_t line) {
  if (token == "routing-switch") {
    return ResourceKind::kRoutingSwitch;
  }
  if (token == "lut-bit") {
    return ResourceKind::kLutBit;
  }
  if (token == "control-bit") {
    return ResourceKind::kControlBit;
  }
  throw InvalidArgument("bitstream line " + std::to_string(line) +
                        ": unknown resource kind '" + token + "'");
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw InvalidArgument("bitstream line " + std::to_string(line) + ": " +
                        what);
}

}  // namespace

void write_bitstream(std::ostream& os, const Bitstream& bitstream) {
  os << to_text(bitstream);
}

std::string to_text(const Bitstream& bitstream) {
  // Built in one string rather than through a stream: the daemon encodes
  // a full bitstream (tens of thousands of rows) into every reply.
  const std::size_t n = bitstream.num_contexts();
  std::string out = std::string(kMagic) + "\ncontexts " + std::to_string(n) +
                    "\nrows " + std::to_string(bitstream.num_rows()) + "\n";
  const std::string kinds[] = {to_string(ResourceKind::kRoutingSwitch),
                               to_string(ResourceKind::kLutBit),
                               to_string(ResourceKind::kControlBit)};
  // The exact size, so the buffer is never regrown (and copied) midway.
  std::size_t bytes = out.size();
  for (const auto& row : bitstream.rows()) {
    const std::string& kind = kinds[static_cast<std::size_t>(row.kind)];
    bytes += row.name.size() + kind.size() + n + 3;  // 2 spaces, newline
  }
  out.reserve(bytes);
  for (const auto& row : bitstream.rows()) {
    out += row.name;
    out += ' ';
    out += kinds[static_cast<std::size_t>(row.kind)];
    out += ' ';
    // MSB-first, as ContextPattern::to_string renders it.
    for (std::size_t c = n; c-- > 0;) {
      out += row.pattern.value_in(c) ? '1' : '0';
    }
    out += '\n';
  }
  return out;
}

Bitstream read_bitstream(std::istream& is) {
  std::string line;
  std::size_t line_no = 1;

  if (!std::getline(is, line) || line != kMagic) {
    fail(line_no, "expected header '" + std::string(kMagic) + "'");
  }

  ++line_no;
  std::size_t num_contexts = 0;
  {
    std::string key;
    if (!std::getline(is, line)) {
      fail(line_no, "missing 'contexts' line");
    }
    std::istringstream ls(line);
    if (!(ls >> key) || key != "contexts") {
      fail(line_no, "malformed 'contexts' line");
    }
    num_contexts = parse_count(ls, "context count", line_no, fail);
    expect_line_end(ls, line_no, fail);
  }
  if (!is_valid_context_count(num_contexts)) {
    fail(line_no, "invalid context count " + std::to_string(num_contexts));
  }

  ++line_no;
  std::size_t rows = 0;
  {
    std::string key;
    if (!std::getline(is, line)) {
      fail(line_no, "missing 'rows' line");
    }
    std::istringstream ls(line);
    if (!(ls >> key) || key != "rows") {
      fail(line_no, "malformed 'rows' line");
    }
    rows = parse_count(ls, "row count", line_no, fail);
    expect_line_end(ls, line_no, fail);
  }

  Bitstream bs(num_contexts);
  for (std::size_t r = 0; r < rows; ++r) {
    ++line_no;
    if (!std::getline(is, line)) {
      fail(line_no, "expected " + std::to_string(rows) + " rows, got " +
                        std::to_string(r));
    }
    std::istringstream ls(line);
    std::string name;
    std::string kind;
    std::string bits;
    if (!(ls >> name >> kind >> bits)) {
      fail(line_no, "malformed row (need: name kind pattern)");
    }
    expect_line_end(ls, line_no, fail);
    if (bits.size() != num_contexts) {
      fail(line_no, "pattern width " + std::to_string(bits.size()) +
                        " != contexts " + std::to_string(num_contexts));
    }
    try {
      bs.add_row(std::move(name), parse_kind(kind, line_no),
                 ContextPattern::from_string(bits));
    } catch (const InvalidArgument& e) {
      fail(line_no, e.what());
    }
  }
  return bs;
}

Bitstream from_text(const std::string& text) {
  std::istringstream is(text);
  return read_bitstream(is);
}

namespace {

constexpr const char* kNetlistMagic = "mcfpga-netlist v1";

[[noreturn]] void nfail(std::size_t line, const std::string& what) {
  throw InvalidArgument("netlist line " + std::to_string(line) + ": " +
                        what);
}

void check_name(const std::string& name) {
  if (name.empty()) {
    throw InvalidArgument("netlist serialization: empty name");
  }
  for (const char c : name) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      throw InvalidArgument("netlist serialization: name '" + name +
                            "' contains whitespace");
    }
  }
}

/// Reads one non-empty line into an istringstream positioned past `key`.
std::istringstream expect_line(std::istream& is, std::size_t& line_no,
                               const char* key) {
  std::string line;
  ++line_no;
  if (!std::getline(is, line)) {
    nfail(line_no, std::string("missing '") + key + "' line");
  }
  std::istringstream ls(line);
  std::string got;
  if (!(ls >> got) || got != key) {
    nfail(line_no, std::string("expected '") + key + "' line");
  }
  return ls;
}

}  // namespace

void write_netlist(std::ostream& os,
                   const netlist::MultiContextNetlist& netlist) {
  os << kNetlistMagic << "\n";
  os << "contexts " << netlist.num_contexts() << "\n";
  for (std::size_t c = 0; c < netlist.num_contexts(); ++c) {
    const netlist::Dfg& dfg = netlist.context(c);
    os << "context " << c << "\n";
    os << "nodes " << dfg.num_nodes() << "\n";
    for (std::size_t i = 0; i < dfg.num_nodes(); ++i) {
      const netlist::DfgNode& node =
          dfg.node(static_cast<netlist::NodeRef>(i));
      check_name(node.name);
      if (node.type == netlist::NodeType::kPrimaryInput) {
        os << "in " << node.name << "\n";
      } else {
        os << "lut " << node.name << ' ' << node.fanins.size();
        for (const netlist::NodeRef f : node.fanins) {
          os << ' ' << f;
        }
        os << ' ' << node.truth_table.to_string() << "\n";
      }
    }
    os << "outputs " << dfg.outputs().size() << "\n";
    for (const netlist::DfgOutput& out : dfg.outputs()) {
      check_name(out.name);
      os << "out " << out.node << ' ' << out.name << "\n";
    }
  }
}

std::string netlist_to_text(const netlist::MultiContextNetlist& netlist) {
  std::ostringstream os;
  write_netlist(os, netlist);
  return os.str();
}

netlist::MultiContextNetlist read_netlist(std::istream& is) {
  std::string line;
  std::size_t line_no = 1;
  if (!std::getline(is, line) || line != kNetlistMagic) {
    nfail(line_no, "expected header '" + std::string(kNetlistMagic) + "'");
  }

  std::size_t num_contexts = 0;
  {
    std::istringstream ls = expect_line(is, line_no, "contexts");
    num_contexts = parse_count(ls, "context count", line_no, nfail);
    expect_line_end(ls, line_no, nfail);
    if (num_contexts == 0) {
      nfail(line_no, "malformed 'contexts' line");
    }
  }

  // Contexts are built as their lines arrive: the count is client text,
  // so nothing is sized by it before the lines back it up.
  std::vector<netlist::Dfg> contexts;
  for (std::size_t c = 0; c < num_contexts; ++c) {
    if (is.peek() == std::istream::traits_type::eof()) {
      nfail(2, "declares " + std::to_string(num_contexts) +
                   " contexts but " + std::to_string(c) + " follow");
    }
    {
      std::istringstream ls = expect_line(is, line_no, "context");
      const std::size_t got =
          parse_count(ls, "context index", line_no, nfail);
      expect_line_end(ls, line_no, nfail);
      if (got != c) {
        nfail(line_no, "expected 'context " + std::to_string(c) + "'");
      }
    }
    std::size_t num_nodes = 0;
    {
      std::istringstream ls = expect_line(is, line_no, "nodes");
      num_nodes = parse_count(ls, "node count", line_no, nfail);
      expect_line_end(ls, line_no, nfail);
    }
    netlist::Dfg& dfg = contexts.emplace_back();
    for (std::size_t i = 0; i < num_nodes; ++i) {
      ++line_no;
      if (!std::getline(is, line)) {
        nfail(line_no, "expected " + std::to_string(num_nodes) + " nodes");
      }
      std::istringstream ls(line);
      std::string kind;
      std::string name;
      if (!(ls >> kind >> name)) {
        nfail(line_no, "malformed node line");
      }
      if (kind == "in") {
        expect_line_end(ls, line_no, nfail);
        dfg.add_input(std::move(name));
        continue;
      }
      if (kind != "lut") {
        nfail(line_no, "unknown node kind '" + kind + "'");
      }
      const std::size_t arity = parse_count(ls, "lut arity", line_no, nfail);
      if (arity >= 8 * sizeof(std::size_t)) {
        nfail(line_no, "lut arity " + std::to_string(arity) + " too large");
      }
      std::vector<netlist::NodeRef> fanins(arity);
      for (std::size_t k = 0; k < arity; ++k) {
        const std::size_t fanin =
            parse_count(ls, "lut fanin", line_no, nfail);
        if (fanin >= i) {
          nfail(line_no, "lut fanin out of range");
        }
        fanins[k] = static_cast<netlist::NodeRef>(fanin);
      }
      std::string bits;
      if (!(ls >> bits) || bits.size() != (std::size_t{1} << arity)) {
        nfail(line_no, "truth table must have 2^arity bits");
      }
      expect_line_end(ls, line_no, nfail);
      for (const char b : bits) {
        if (b != '0' && b != '1') {
          nfail(line_no, "truth table must be over {0,1}");
        }
      }
      try {
        dfg.add_lut(std::move(name), std::move(fanins),
                    BitVector::from_string(bits));
      } catch (const InvalidArgument& e) {
        nfail(line_no, e.what());
      }
    }
    std::size_t num_outputs = 0;
    {
      std::istringstream ls = expect_line(is, line_no, "outputs");
      num_outputs = parse_count(ls, "output count", line_no, nfail);
      expect_line_end(ls, line_no, nfail);
    }
    for (std::size_t i = 0; i < num_outputs; ++i) {
      ++line_no;
      if (!std::getline(is, line)) {
        nfail(line_no,
              "expected " + std::to_string(num_outputs) + " outputs");
      }
      std::istringstream ls(line);
      std::string key;
      if (!(ls >> key) || key != "out") {
        nfail(line_no, "malformed 'out' line");
      }
      const std::size_t node =
          parse_count(ls, "output node", line_no, nfail);
      std::string name;
      if (!(ls >> name)) {
        nfail(line_no, "malformed 'out' line");
      }
      expect_line_end(ls, line_no, nfail);
      if (node >= num_nodes) {
        nfail(line_no, "output node out of range");
      }
      dfg.mark_output(static_cast<netlist::NodeRef>(node), std::move(name));
    }
  }
  return netlist::MultiContextNetlist(std::move(contexts));
}

netlist::MultiContextNetlist netlist_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_netlist(is);
}

}  // namespace mcfpga::config
