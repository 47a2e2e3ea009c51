#include "store/store.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include "common/fsio.h"
#include "common/log.h"
#include "common/state_wire.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace softborg::store {

namespace {

constexpr char kPartMagic[4] = {'S', 'B', 'P', 'T'};
constexpr char kManifestMagic[4] = {'S', 'B', 'M', 'F'};
constexpr std::size_t kChecksumBytes = 8;
constexpr int kGenerationsKept = 2;

void bump(const char* name, std::uint64_t n = 1) {
  if (obs::enabled()) obs::MetricsRegistry::global().counter(name).add(n);
}

void set_err(std::string* err, std::string msg) {
  if (err != nullptr) *err = std::move(msg);
}

std::string gen_name(std::uint64_t seq) {
  return "gen-" + std::to_string(seq);
}

// Fixed-width trailing checksums: a varint read backwards is ambiguous.
void put_checksum(Bytes& out, std::uint64_t sum) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(sum >> (8 * i)));
}

std::uint64_t get_checksum(const Bytes& buf, std::size_t pos) {
  std::uint64_t sum = 0;
  for (int i = 0; i < 8; ++i) sum |= std::uint64_t(buf[pos + i]) << (8 * i);
  return sum;
}

// "gen-<digits>" -> seq; nullopt for anything else (including empty digits,
// leading zeros are accepted).
std::optional<std::uint64_t> parse_gen(const std::string& name) {
  if (name.size() <= 4 || name.compare(0, 4, "gen-") != 0) return std::nullopt;
  std::uint64_t seq = 0;
  for (std::size_t i = 4; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    if (seq > (UINT64_MAX - std::uint64_t(c - '0')) / 10) return std::nullopt;
    seq = seq * 10 + std::uint64_t(c - '0');
  }
  return seq;
}

bool ensure_dir(const std::string& path, std::string* err) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  if (errno == ENOENT) {
    // Create missing parents first (a distributed shard's snapshot dir is
    // typically nested, e.g. <fleet-root>/shard3).
    const auto slash = path.find_last_of('/');
    if (slash != std::string::npos && slash > 0 &&
        ensure_dir(path.substr(0, slash), err) &&
        (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST)) {
      return true;
    }
  }
  set_err(err, "mkdir " + path + ": " + std::strerror(errno));
  return false;
}

// Removes every regular file in `dir`, then the directory itself. Best
// effort: pruning old generations must never fail a save.
void remove_dir_tree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      (void)::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  (void)::rmdir(dir.c_str());
}

std::vector<std::uint64_t> list_generations(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return seqs;
  while (dirent* e = ::readdir(d)) {
    if (auto seq = parse_gen(e->d_name)) seqs.push_back(*seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

// CI crash-injection hook: SOFTBORG_STORE_CRASH=parts kills the process
// after the part files but before the manifest; =manifest kills it after the
// manifest but before the CURRENT repoint. Both crash points must leave the
// previous generation resumable — the kill -9 CI leg pins exactly that.
void maybe_crash(const char* point) {
  const char* want = std::getenv("SOFTBORG_STORE_CRASH");
  if (want != nullptr && std::strcmp(want, point) == 0) {
    SB_CLOG_WARN("store", "crash injection at '%s'", point);
    ::raise(SIGKILL);
  }
}

struct ManifestEntry {
  std::string name;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
};

Bytes encode_part_file(const Part& part) {
  Bytes buf(kPartMagic, kPartMagic + 4);
  put_varint(buf, kFormatVersion);
  put_str(buf, part.name);
  put_blob(buf, part.payload);
  put_checksum(buf, fnv1a64(buf.data(), buf.size()));
  return buf;
}

Bytes encode_manifest(std::uint64_t seq,
                      const std::vector<ManifestEntry>& entries) {
  Bytes buf(kManifestMagic, kManifestMagic + 4);
  put_varint(buf, kFormatVersion);
  put_varint(buf, seq);
  put_varint(buf, entries.size());
  for (const ManifestEntry& e : entries) {
    put_str(buf, e.name);
    put_varint(buf, e.payload_len);
    put_varint(buf, e.checksum);
  }
  put_checksum(buf, fnv1a64(buf.data(), buf.size()));
  return buf;
}

// Shared preamble validation for part files and the manifest: minimum size,
// trailing self-checksum, leading magic. On success returns a StateReader
// positioned after the magic whose buffer excludes the checksum.
bool check_framing(const Bytes& buf, const char magic[4], const char* what,
                   std::string* err) {
  if (buf.size() < 4 + kChecksumBytes) {
    set_err(err, std::string(what) + ": too short");
    return false;
  }
  const std::size_t body = buf.size() - kChecksumBytes;
  if (fnv1a64(buf.data(), body) != get_checksum(buf, body)) {
    set_err(err, std::string(what) + ": checksum mismatch");
    return false;
  }
  if (std::memcmp(buf.data(), magic, 4) != 0) {
    set_err(err, std::string(what) + ": bad magic");
    return false;
  }
  return true;
}

std::optional<Snapshot> read_snapshot_impl(const std::string& dir,
                                           std::string* err) {
  Bytes current;
  if (!read_file(dir + "/CURRENT", current, 256)) {
    set_err(err, "unreadable CURRENT file in " + dir);
    return std::nullopt;
  }
  std::string current_name(current.begin(), current.end());
  if (!current_name.empty() && current_name.back() == '\n')
    current_name.pop_back();
  const auto seq = parse_gen(current_name);
  if (!seq) {
    set_err(err, "CURRENT is malformed");
    return std::nullopt;
  }
  const std::string gen_dir = dir + "/" + gen_name(*seq);

  Bytes mbuf;
  if (!read_file(gen_dir + "/MANIFEST", mbuf)) {
    set_err(err, "missing manifest in " + gen_dir);
    return std::nullopt;
  }
  bump("store.bytes_read_total", mbuf.size());
  if (!check_framing(mbuf, kManifestMagic, "manifest", err)) {
    return std::nullopt;
  }
  // Shrink the reader's world to exclude the checksum so done() means
  // "consumed exactly the manifest body".
  Bytes mbody(mbuf.begin(),
              mbuf.end() - static_cast<std::ptrdiff_t>(kChecksumBytes));
  StateReader r(mbody, 4);
  const std::uint64_t version = r.u64();
  if (r.ok() && version > kFormatVersion) {
    // Forward version skew: written by a future binary. Refuse outright —
    // guessing at an unknown layout is exactly the UB this layer exists to
    // prevent.
    set_err(err, "manifest format version " + std::to_string(version) +
                     " is newer than supported " +
                     std::to_string(kFormatVersion));
    return std::nullopt;
  }
  if (r.u64() != *seq) r.fail();  // manifest seq must match CURRENT
  const std::uint64_t n_parts = r.count(3);
  std::vector<ManifestEntry> entries;
  entries.reserve(n_parts);
  for (std::uint64_t i = 0; i < n_parts && r.ok(); ++i) {
    ManifestEntry e;
    r.str(e.name);
    e.payload_len = r.u64();
    e.checksum = r.u64();
    entries.push_back(std::move(e));
  }
  if (!r.done()) {
    set_err(err, "manifest body is malformed");
    return std::nullopt;
  }

  Snapshot snap;
  snap.seq = *seq;
  for (const ManifestEntry& e : entries) {
    if (e.name.empty() || e.name == "MANIFEST" ||
        e.name.find('/') != std::string::npos) {
      set_err(err, "manifest names illegal part '" + e.name + "'");
      return std::nullopt;
    }
    Bytes pbuf;
    if (!read_file(gen_dir + "/" + e.name, pbuf)) {
      set_err(err, "missing part " + e.name);
      return std::nullopt;
    }
    bump("store.bytes_read_total", pbuf.size());
    if (!check_framing(pbuf, kPartMagic, e.name.c_str(), err)) {
      return std::nullopt;
    }
    Bytes pbody(pbuf.begin(),
                pbuf.end() - static_cast<std::ptrdiff_t>(kChecksumBytes));
    StateReader pr(pbody, 4);
    if (pr.u64() > kFormatVersion) pr.fail();
    std::string name;
    Bytes payload;
    pr.str(name);
    pr.blob(payload);
    if (!pr.done() || name != e.name || payload.size() != e.payload_len ||
        fnv1a64(payload.data(), payload.size()) != e.checksum) {
      set_err(err, "part " + e.name + " does not match its manifest entry");
      return std::nullopt;
    }
    if (!snap.parts.emplace(e.name, std::move(payload)).second) {
      set_err(err, "manifest lists part " + e.name + " twice");
      return std::nullopt;
    }
  }
  return snap;
}

}  // namespace

bool write_snapshot(const std::string& dir, std::uint64_t seq,
                    const std::vector<Part>& parts, std::string* err) {
  SB_SPAN("store.save");
  if (!ensure_dir(dir, err)) return false;
  const std::string gen_dir = dir + "/" + gen_name(seq);
  // A directory for this seq can only be a leftover from a crashed or failed
  // earlier attempt (CURRENT never pointed at it); start it clean.
  remove_dir_tree(gen_dir);
  if (!ensure_dir(gen_dir, err)) return false;

  std::uint64_t bytes = 0;
  std::vector<ManifestEntry> entries;
  entries.reserve(parts.size());
  for (const Part& part : parts) {
    const Bytes buf = encode_part_file(part);
    if (!atomic_write_file(gen_dir + "/" + part.name, buf.data(), buf.size(),
                           err)) {
      return false;
    }
    bytes += buf.size();
    entries.push_back({part.name, part.payload.size(),
                       fnv1a64(part.payload.data(), part.payload.size())});
  }
  maybe_crash("parts");

  const Bytes manifest = encode_manifest(seq, entries);
  if (!atomic_write_file(gen_dir + "/MANIFEST", manifest.data(),
                         manifest.size(), err)) {
    return false;
  }
  bytes += manifest.size();
  maybe_crash("manifest");

  // The commit point: once CURRENT names the new generation, readers switch
  // to it; until then they keep loading the previous one.
  const std::string current = gen_name(seq) + "\n";
  if (!atomic_write_file(dir + "/CURRENT", current.data(), current.size(),
                         err)) {
    return false;
  }
  bytes += current.size();

  std::vector<std::uint64_t> seqs = list_generations(dir);
  if (seqs.size() > kGenerationsKept) {
    for (std::size_t i = 0; i + kGenerationsKept < seqs.size(); ++i) {
      if (seqs[i] != seq) remove_dir_tree(dir + "/" + gen_name(seqs[i]));
    }
  }

  bump("store.snapshot_saves_total");
  bump("store.bytes_written_total", bytes);
  return true;
}

std::optional<Snapshot> read_snapshot(const std::string& dir,
                                      std::string* err) {
  SB_SPAN("store.load");
  // No CURRENT means no generation was ever committed here: the normal
  // first start, not a snapshot to reject. An unreadable CURRENT still is.
  struct ::stat st {};
  if (::stat((dir + "/CURRENT").c_str(), &st) != 0 && errno == ENOENT) {
    set_err(err, "no snapshot in " + dir);
    return std::nullopt;
  }
  std::string local_err;
  auto snap = read_snapshot_impl(dir, &local_err);
  if (!snap) {
    bump("store.validation_rejects_total");
    SB_CLOG_WARN("store", "rejecting snapshot in %s: %s", dir.c_str(),
                 local_err.c_str());
    set_err(err, std::move(local_err));
    return std::nullopt;
  }
  bump("store.snapshot_loads_total");
  return snap;
}

}  // namespace softborg::store
