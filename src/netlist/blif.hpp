// blif.hpp — Berkeley Logic Interchange Format (BLIF) import/export.
//
// The paper's flow consumed EDIF netlists from a commercial synthesis tool;
// this repository's equivalent interchange point is the (far simpler) BLIF
// subset every academic logic-synthesis tool emits:
//
//   .model <name>
//   .inputs <ports...>          .outputs <ports...>
//   .names <in...> <out>        followed by single-output cover rows
//   .latch <in> <out> [<type> <ctrl>] [<init>]
//   .end
//
// Export writes each LUT as its irredundant SOP cover (reusing the
// Quine–McCluskey engine), so a written file round-trips bit-exactly.
// Import accepts covers with '-' don't-cares and both ON-set ("1") and
// OFF-set ("0") output columns, constants (".names y" with/without a "1"
// row), and latches with initial values 0/1 (2/3 treated as 0).
//
// The importer treats its input as untrusted: every malformed construct —
// bad cover characters, width mismatches, truncation mid-continuation or
// before .end, cyclic or undriven nets — raises blif_error (a plee_error),
// never an untyped exception and never undefined behaviour, so a fleet job
// fed a hostile deck rejects it cleanly.

#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"
#include "rt/errors.hpp"

namespace plee::nl {

/// Malformed-BLIF diagnostic.  `line()` is the 1-based source line the error
/// is attributable to, or 0 for whole-file conditions (missing .model,
/// undriven output port).
class blif_error : public plee_error {
public:
    blif_error(int line, const std::string& what)
        : plee_error(line > 0
                         ? "BLIF line " + std::to_string(line) + ": " + what
                         : "BLIF: " + what),
          line_(line) {}

    int line() const { return line_; }

private:
    int line_;
};

/// Serializes `netlist` as BLIF.  Port and latch names survive; internal LUT
/// nets get synthetic names (n<id>).
std::string to_blif(const netlist& nl, const std::string& model_name = "plee");

/// Parses one .model from a BLIF stream.  Throws blif_error with a line
/// number on malformed input.  The result validates.
netlist from_blif(std::istream& in);
netlist from_blif_string(const std::string& text);

}  // namespace plee::nl
