#include "bus/repl_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.hpp"

namespace amuse {
namespace {

constexpr std::size_t kRecordHeader = 1 + 4 + 4;  // type + length + crc

}  // namespace

void frame_repl_record(Bytes& out, std::uint8_t type, BytesView payload) {
  Writer w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  out.insert(out.end(), w.bytes().begin(), w.bytes().end());
  out.insert(out.end(), payload.begin(), payload.end());
}

JournalReplay replay_repl_journal(BytesView journal) {
  JournalReplay r;
  std::size_t off = 0;
  // Replay onto a scratch state; `have_snapshot` gates ops — an op record
  // with no snapshot underneath cannot be applied consistently and marks
  // the journal torn from that point.
  ReplState state;
  bool have_snapshot = false;
  while (off < journal.size()) {
    if (journal.size() - off < kRecordHeader) break;  // short header → torn
    const std::uint8_t* header = journal.data() + off;
    std::uint8_t type = header[0];
    std::uint64_t len = load_be<4>(header + 1);
    auto crc = static_cast<std::uint32_t>(load_be<4>(header + 5));
    if (journal.size() - off - kRecordHeader < len) break;  // short payload
    BytesView payload(journal.data() + off + kRecordHeader, len);
    if (crc32(payload) != crc) break;  // bit rot / torn write
    if (type == kReplRecordSnapshot) {
      try {
        state = ReplState::decode(payload);
      } catch (const DecodeError&) {
        break;
      }
      have_snapshot = true;
    } else if (type == kReplRecordOps) {
      if (!have_snapshot) break;
      try {
        state.apply_ops(payload);
      } catch (const DecodeError&) {
        break;
      }
    } else {
      break;  // unknown record type
    }
    off += kRecordHeader + len;
    ++r.recovery.records;
  }
  r.valid_bytes = off;
  r.torn = off < journal.size();
  if (have_snapshot) r.recovery.state = std::move(state);
  return r;
}

// ---------------------------------------------------------------------------
// MemReplStore

void MemReplStore::append_ops(BytesView op) {
  frame_repl_record(journal_, kReplRecordOps, op);
  ++stats_.ops_appended;
}

void MemReplStore::snapshot(BytesView state) {
  journal_.clear();
  frame_repl_record(journal_, kReplRecordSnapshot, state);
  ++stats_.snapshots_written;
}

ReplStore::Recovery MemReplStore::recover() {
  JournalReplay r = replay_repl_journal(journal_);
  if (r.torn) {
    journal_.resize(r.valid_bytes);
    ++stats_.torn_tails;
  }
  ++stats_.recoveries;
  return std::move(r.recovery);
}

// ---------------------------------------------------------------------------
// FileReplStore

void FileReplStore::append_ops(BytesView op) {
  Bytes rec;
  frame_repl_record(rec, kReplRecordOps, op);
  std::ofstream f(path_, std::ios::binary | std::ios::app);
  f.write(reinterpret_cast<const char*>(rec.data()),
          static_cast<std::streamsize>(rec.size()));
  f.flush();
  ++stats_.ops_appended;
}

void FileReplStore::snapshot(BytesView state) {
  // Compaction: the snapshot subsumes the whole journal. Write a fresh file
  // and rename it over the old one so a crash mid-compaction leaves either
  // the full old journal or the complete new snapshot, never a mix.
  Bytes rec;
  frame_repl_record(rec, kReplRecordSnapshot, state);
  std::string tmp = path_ + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(rec.data()),
            static_cast<std::streamsize>(rec.size()));
    f.flush();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  ++stats_.snapshots_written;
}

ReplStore::Recovery FileReplStore::recover() {
  Bytes journal;
  {
    std::ifstream f(path_, std::ios::binary | std::ios::ate);
    if (f) {
      auto size = static_cast<std::size_t>(f.tellg());
      journal.resize(size);
      f.seekg(0);
      f.read(reinterpret_cast<char*>(journal.data()),
             static_cast<std::streamsize>(size));
    }
  }
  JournalReplay r = replay_repl_journal(journal);
  if (r.torn) {
    std::error_code ec;
    std::filesystem::resize_file(path_, r.valid_bytes, ec);
    ++stats_.torn_tails;
  }
  ++stats_.recoveries;
  return std::move(r.recovery);
}

}  // namespace amuse
