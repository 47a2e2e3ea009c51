// Durable corpus store: versioned, checksummed snapshot directories for the
// hive's accumulated state (ISSUE 7 tentpole).
//
// Layout under a snapshot root `dir`:
//
//   dir/CURRENT              "gen-<seq>\n" — name of the newest good generation
//   dir/gen-<seq>/<part>     one file per logical part ("hive", "trees", ...)
//   dir/gen-<seq>/MANIFEST   part list + per-part checksums, written LAST
//
// Crash-safety protocol (write_snapshot):
//   1. write every part file (temp + fsync + rename, common/fsio.h),
//   2. write MANIFEST the same way — a generation without a readable,
//      self-checksummed manifest does not exist as far as readers care,
//   3. atomically rewrite CURRENT to point at the new generation,
//   4. prune older generations, keeping the newest two.
// A crash at any step leaves the previously-current generation fully intact
// and loadable; a crash between (2) and (3) leaves a complete orphan
// generation that the next save prunes.
//
// Validation policy (read_snapshot): every magic, version, length, and
// checksum is verified before a byte of payload is handed to a component
// decoder. Any mismatch — torn file, bit rot, truncation, an unreadable or
// malformed CURRENT, a manifest from a future format version — yields
// std::nullopt (plus a store.validation_rejects_total tick and a WARN) so
// the caller degrades to a clean cold start. Corruption is never UB and
// never a partial load. A directory with no CURRENT at all (a first start)
// is simply empty: nullopt, with no tick and no warning.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/varint.h"

namespace softborg::store {

// Bump when the container layout changes. Readers refuse snapshots whose
// manifest declares a NEWER version (forward skew = written by a future
// binary); older versions decode via back-compat paths (none yet).
inline constexpr std::uint64_t kFormatVersion = 1;

struct Part {
  std::string name;
  Bytes payload;
};

struct Snapshot {
  std::uint64_t seq = 0;
  std::map<std::string, Bytes> parts;
};

// Writes generation `seq` under `dir` (created if missing) following the
// crash-safety protocol above. False on I/O failure (with *err set when
// non-null); the previously-current generation is untouched either way.
bool write_snapshot(const std::string& dir, std::uint64_t seq,
                    const std::vector<Part>& parts, std::string* err = nullptr);

// Loads the generation named by CURRENT, validating everything. nullopt when
// the directory has no snapshot (no CURRENT: not counted as a reject) or the
// snapshot fails any validation check; *err (when non-null) describes why.
std::optional<Snapshot> read_snapshot(const std::string& dir,
                                      std::string* err = nullptr);

}  // namespace softborg::store
