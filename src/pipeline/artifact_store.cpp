#include "finser/pipeline/artifact_store.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "finser/obs/obs.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/checksum.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/io.hpp"

namespace finser::pipeline {

namespace {

// Format v1. Layout: magic | u64 kind_len | kind bytes | u64 fingerprint |
// u64 payload_len | payload bytes | u32 crc32(everything after the magic).
// The key echo inside the CRC'd region means a blob renamed onto another
// key's path is rejected as mis-keyed, not served as that key's content.
constexpr char kMagic[8] = {'F', 'N', 'S', 'R', 'A', 'R', 'T', '1'};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root, bool sweep_on_open)
    : root_(std::move(root)) {
  if (sweep_on_open) sweep_orphans(root_);
}

std::size_t ArtifactStore::sweep_orphans(const std::string& dir) {
  std::size_t swept = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;  // Missing dir: nothing to sweep (normal cold start).
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".tmp") continue;
    if (std::filesystem::remove(p, entry_ec) && !entry_ec) ++swept;
  }
  if (swept > 0) {
    FINSER_OBS_COUNT("pipeline.artifact.orphans_swept",
                     static_cast<std::uint64_t>(swept));
  }
  return swept;
}

std::string ArtifactStore::path_for(const ArtifactKey& key) const {
  return root_ + "/" + key.kind + "-" + hex16(key.fingerprint) + ".art";
}

bool ArtifactStore::put(const ArtifactKey& key,
                        const std::vector<std::uint8_t>& payload,
                        std::string* error) const {
  util::ByteWriter body;
  body.u64(key.kind.size());
  body.bytes(key.kind.data(), key.kind.size());
  body.u64(key.fingerprint);
  body.u64(payload.size());
  body.bytes(payload.data(), payload.size());

  util::ByteWriter file;
  file.bytes(kMagic, sizeof(kMagic));
  file.bytes(body.data().data(), body.size());
  file.u32(util::crc32(body.data().data(), body.size()));

  // Fault-injection hook: corrupt one byte so tests can prove a flipped
  // blob is rejected by CRC and recomputed, never loaded.
  std::vector<std::uint8_t> bytes = file.take();
  if (util::fault_fire(util::FaultSite::kCacheFlip)) {
    const std::size_t off = static_cast<std::size_t>(util::fault_arg(
                                util::FaultSite::kCacheFlip)) %
                            bytes.size();
    bytes[off] ^= 0x01;
  }

  const std::string path = path_for(key);
  std::string why;
  if (!util::atomic_write_file(path, bytes.data(), bytes.size(), &why)) {
    // The one place a lost write is reported: the result is still in
    // memory, so the run goes on and only a later run recomputes it.
    std::fprintf(stderr,
                 "[finser:pipeline] warning: artifact %s not written: %s\n",
                 path.c_str(), why.c_str());
    if (error != nullptr) *error = why;
    return false;
  }
  FINSER_OBS_COUNT("pipeline.artifact.writes", 1);
  // The kill-and-resume test SIGKILLs the process *after* an artifact has
  // durably landed — a rerun must replay exactly what survived this death.
  if (util::fault_fire(util::FaultSite::kKillAfterFlush)) std::raise(SIGKILL);
  return true;
}

bool ArtifactStore::try_get(const ArtifactKey& key,
                            std::vector<std::uint8_t>& out,
                            std::string* reason) const {
  const std::string path = path_for(key);
  const auto miss = [&](const std::string& why, bool log) {
    if (reason != nullptr) *reason = why;
    if (log) {
      std::fprintf(stderr,
                   "[finser:pipeline] artifact %s not used: %s; recomputing\n",
                   path.c_str(), why.c_str());
    }
    if (log) {
      FINSER_OBS_COUNT("pipeline.artifact.rejects", 1);
    } else {
      FINSER_OBS_COUNT("pipeline.artifact.misses", 1);
    }
    return false;
  };

  // A missing blob is the normal cold-run case — no log, no warning.
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return miss("no artifact", false);

  std::vector<std::uint8_t> raw;
  std::string io_error;
  if (!util::read_file(path, raw, &io_error)) return miss(io_error, true);

  if (raw.size() < sizeof(kMagic) + sizeof(std::uint32_t)) {
    return miss("too short to be an artifact (" + std::to_string(raw.size()) +
                    " bytes)",
                true);
  }
  if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
    return miss("bad magic (not a format-v1 artifact)", true);
  }

  // Integrity first, parsing second: the CRC over the whole body rejects
  // truncation and bit flips before any length field is trusted.
  const std::size_t body_size =
      raw.size() - sizeof(kMagic) - sizeof(std::uint32_t);
  const std::uint8_t* body = raw.data() + sizeof(kMagic);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, body + body_size, sizeof(stored_crc));
  if (stored_crc != util::crc32(body, body_size)) {
    return miss("CRC mismatch (torn or corrupted artifact)", true);
  }

  try {
    util::ByteReader r(body, body_size);
    const std::uint64_t kind_len = r.u64();
    if (kind_len != key.kind.size()) return miss("artifact kind mismatch", true);
    std::string kind(kind_len, '\0');
    r.bytes(kind.data(), kind_len);
    if (kind != key.kind) return miss("artifact kind mismatch", true);
    if (r.u64() != key.fingerprint) {
      return miss("fingerprint mismatch (stale artifact)", true);
    }
    const std::uint64_t payload_len = r.u64();
    if (payload_len != r.remaining()) {
      return miss("payload length mismatch", true);
    }
    out.resize(payload_len);
    r.bytes(out.data(), payload_len);
  } catch (const std::exception& e) {
    // A corrupt length field that slipped past the CRC must degrade to
    // recompute, never crash the run.
    return miss(e.what(), true);
  }
  FINSER_OBS_COUNT("pipeline.artifact.hits", 1);
  return true;
}

std::vector<ArtifactStore::Entry> ArtifactStore::list() const {
  std::vector<Entry> entries;
  std::error_code ec;
  std::filesystem::directory_iterator it(root_, ec);
  if (ec) return entries;  // Missing root: an empty store, not an error.
  for (const auto& de : it) {
    std::error_code fec;
    if (!de.is_regular_file(fec) || fec) continue;
    const std::filesystem::path& p = de.path();
    if (p.extension() != ".art") continue;
    Entry e;
    e.bytes = de.file_size(fec);
    if (fec) e.bytes = 0;

    // Filename shape: `<kind>-<16 hex digits>.art` (path_for). Kind slugs
    // may themselves contain '-', so split at the *last* dash.
    const std::string stem = p.stem().string();
    const std::size_t dash = stem.rfind('-');
    bool parsed = dash != std::string::npos && stem.size() == dash + 17;
    std::uint64_t fp = 0;
    for (std::size_t i = dash + 1; parsed && i < stem.size(); ++i) {
      const char c = stem[i];
      if (c >= '0' && c <= '9') {
        fp = (fp << 4) | static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        fp = (fp << 4) | static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        parsed = false;
      }
    }
    if (!parsed || dash == 0) {
      e.key.kind = p.filename().string();
      e.status = "unrecognized artifact filename";
      entries.push_back(std::move(e));
      continue;
    }
    e.key.kind = stem.substr(0, dash);
    e.key.fingerprint = fp;
    std::vector<std::uint8_t> blob;
    std::string reason;
    e.ok = try_get(e.key, blob, &reason);
    e.status = e.ok ? "ok" : reason;
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.key.kind != b.key.kind) return a.key.kind < b.key.kind;
    return a.key.fingerprint < b.key.fingerprint;
  });
  return entries;
}

}  // namespace finser::pipeline
