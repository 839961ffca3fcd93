// atomic_write.hpp — crash-safe whole-file replacement for artifact sinks.
//
// Every file the tools write (--json, --metrics-out, --trace-out) goes
// through atomic_write_text, so an interrupt, a crash or a full disk never
// leaves a half-written artifact behind: readers see either the previous
// file or the complete new one.

#pragma once

#include <string>

namespace plee {

/// Atomically replaces `path` with `text`.  The bytes go to the temporary
/// file `<path>.tmp.<pid>` in the same directory, which is fsynced and then
/// renamed over `path`; the directory is fsynced afterwards so the rename
/// itself is durable.  A failure at any step removes the temporary file,
/// leaves `path` untouched and throws plee::plee_error.
void atomic_write_text(const std::string& path, const std::string& text);

}  // namespace plee
