// Store-key schema of the ECCheck engine, shared by the SPMD protocol
// (core/fabric_engine.cpp, also the byte plane of the simulator's engines),
// the session layers and the tests that inspect stores, so the schema lives
// in exactly one place:
//
//   <ns>ec/<version>/row/<row>/<j>/<b>   packet b of stripe j of chunk row
//   <ns>ec/<version>/meta/<w>            worker w's serialized metadata
//   <ns>ec/<version>/keys/<w>            worker w's serialized tensor keys
//   <ns>ec/<version>/sums                per-packet CRC64s of this node's row
//   <ns>ec/<version>/commit              version marker: the save completed
//   <ns>tmp/<version>/local/<w>/<b>      staging copy of worker w's packet b
//   <ns>tmp/<version>/partial/<j>/<r>/<s> site s's GF partial of parity row
//                                        r, group j (reused across slots b)
//   <ns>tmp/<version>/load/rec/<s>/<j>/<b>  basis row s's packet b of stripe
//                                        j, shipped to a decode target's site
//   <ns>tmp/<version>/load/refill/<w>/<b> worker w's packet b, shipped from
//                                        its data node to the worker's site;
//                                        at most one refill window of these
//                                        (kRefillBatchBytes) exists at a time
//
// The SPMD flag rounds (one 16-byte flag per node, all-gathered and erased
// again) key each node's flag as a prefix followed by "<node>":
//
//   <ns>tmp/<version>/delta/flag/<node>  a delta save's base version and
//                                        dirty bytes
//   <ns>tmp/<version>/load/flag<i>/<node> a load's round i ∈ {1, 2}: row
//                                        state and metadata extent
//   <ns>tmp/vers/<node>                  the newest committed version the
//                                        node knows (unversioned)
//
// Everything under "<ns>ec/<version>/" is the durable footprint of one
// version (version_prefix); "<ns>tmp/<version>/" holds transient staging
// keys that a completed save or load always erases (tmp_prefix — a torn
// save rolls them back).
//
// Incremental checkpointing (ECCheckConfig::delta) adds an unversioned
// base cache at each worker's site — the packed packets of the last
// committed version, diffed against on the next save:
//
//   <ns>base/mark                        cache marker: version, B, P, g
//   <ns>base/local/<w>/<b>               cached packet b of worker w
//   <ns>base/keys/<w>                    cached tensor-keys blob of worker w
//   <ns>tmp/<version>/delta/manifest/<w> worker w's dirty-extent manifest
//   <ns>tmp/<version>/delta/patch/<w>    worker w's concatenated Δ payload
//
// A delta save of version V moves its base version bv's row under V's keys
// and patches it there, leaving bv an undo overlay instead of a row:
//
//   <ns>ec/<bv>/moved                    (V, row): the version and chunk
//                                        row that now hold bv's row bytes
//   <ns>ec/<bv>/undo/<j>                 slot j's undo log: pre-images of
//                                        the bytes V's patches changed in
//                                        stripe j, one record per footprint
//                                        range, (b u64, offset u64, length
//                                        u64, bytes)… in capture order
//
// Each patch of a stripe slot (one worker's Δ on one row) appends all its
// records to the slot's log with one put before it changes a byte; a
// parity slot that k chunks patch holds their records in patch order.
// A version has either its own row keys or a moved marker, never both.
// fabric_rollback(V) restores bv before it scrubs V; materialize_version
// rebuilds bv's row from V's, each log's records applied newest to oldest.
// A log that does not parse — cut short, or a record outside its packets
// — is never applied: the packets of that slot, and with them the rest of
// the row, are dropped instead, so the row reads as lost and the load
// decodes it.
//
// The cache is valid only while the marker's version still has its commit
// marker and its row on the same node: a torn delta save rolls the version
// keys back (fabric_rollback) which invalidates any half-written cache, so
// the next save re-encodes in full — never from wrong bytes. The marker is
// erased before the cache is rewritten and re-put last, giving the same
// fail-to-full-encode behaviour for a crash mid-refresh.
#pragma once

#include <cstdint>
#include <string>

namespace eccheck::core::keys {

inline std::string version_prefix(const std::string& ns, std::int64_t v) {
  return ns + "ec/" + std::to_string(v) + "/";
}

inline std::string tmp_prefix(const std::string& ns, std::int64_t v) {
  return ns + "tmp/" + std::to_string(v) + "/";
}

/// Prefix of every packet key of version v, whatever its chunk row.
inline std::string rows_prefix(const std::string& ns, std::int64_t v) {
  return version_prefix(ns, v) + "row/";
}

/// Prefix of the packet keys of chunk row `row` of version v; a packet's
/// key is the prefix followed by "<j>/<b>".
inline std::string row_prefix(const std::string& ns, std::int64_t v, int row) {
  return rows_prefix(ns, v) + std::to_string(row) + "/";
}

inline std::string row_key(const std::string& ns, std::int64_t v, int row,
                           int j, int b) {
  return row_prefix(ns, v, row) + std::to_string(j) + "/" + std::to_string(b);
}

/// Prefix of version v's metadata blobs; worker w's key is the prefix
/// followed by "<w>".
inline std::string meta_prefix(const std::string& ns, std::int64_t v) {
  return version_prefix(ns, v) + "meta/";
}

inline std::string meta_key(const std::string& ns, std::int64_t v, int w) {
  return meta_prefix(ns, v) + std::to_string(w);
}

/// Prefix of version v's tensor-keys blobs, named like meta_prefix's.
inline std::string keys_prefix(const std::string& ns, std::int64_t v) {
  return version_prefix(ns, v) + "keys/";
}

inline std::string keys_key(const std::string& ns, std::int64_t v, int w) {
  return keys_prefix(ns, v) + std::to_string(w);
}

inline std::string commit_key(const std::string& ns, std::int64_t v) {
  return version_prefix(ns, v) + "commit";
}

inline std::string sums_key(const std::string& ns, std::int64_t v) {
  return version_prefix(ns, v) + "sums";
}

inline std::string moved_key(const std::string& ns, std::int64_t v) {
  return version_prefix(ns, v) + "moved";
}

/// Prefix of version v's undo overlay; slot j's log is the prefix
/// followed by "<j>".
inline std::string undo_prefix(const std::string& ns, std::int64_t v) {
  return version_prefix(ns, v) + "undo/";
}

inline std::string undo_key(const std::string& ns, std::int64_t v, int j) {
  return undo_prefix(ns, v) + std::to_string(j);
}

inline std::string local_key(const std::string& ns, std::int64_t v, int w,
                             int b) {
  return tmp_prefix(ns, v) + "local/" + std::to_string(w) + "/" +
         std::to_string(b);
}

/// Prefix of version v's parity partials, erased once after step 3.
inline std::string partial_prefix(const std::string& ns, std::int64_t v) {
  return tmp_prefix(ns, v) + "partial/";
}

inline std::string partial_key(const std::string& ns, std::int64_t v, int j,
                               int r, int site) {
  return partial_prefix(ns, v) + std::to_string(j) + "/" + std::to_string(r) +
         "/" + std::to_string(site);
}

inline std::string load_rec_key(const std::string& ns, std::int64_t v, int s,
                                int j, int b) {
  return tmp_prefix(ns, v) + "load/rec/" + std::to_string(s) + "/" +
         std::to_string(j) + "/" + std::to_string(b);
}

inline std::string load_refill_key(const std::string& ns, std::int64_t v,
                                   int w, int b) {
  return tmp_prefix(ns, v) + "load/refill/" + std::to_string(w) + "/" +
         std::to_string(b);
}

inline std::string delta_flag_prefix(const std::string& ns, std::int64_t v) {
  return tmp_prefix(ns, v) + "delta/flag/";
}

inline std::string load_flag_prefix(const std::string& ns, std::int64_t v,
                                    int round) {
  return tmp_prefix(ns, v) + "load/flag" + std::to_string(round) + "/";
}

/// Unversioned: fabric_newest_version runs before any version is chosen.
inline std::string newest_flag_prefix(const std::string& ns) {
  return ns + "tmp/vers/";
}

inline std::string base_prefix(const std::string& ns) { return ns + "base/"; }

inline std::string base_mark_key(const std::string& ns) {
  return base_prefix(ns) + "mark";
}

inline std::string base_local_key(const std::string& ns, int w, int b) {
  return base_prefix(ns) + "local/" + std::to_string(w) + "/" +
         std::to_string(b);
}

inline std::string base_keys_key(const std::string& ns, int w) {
  return base_prefix(ns) + "keys/" + std::to_string(w);
}

inline std::string delta_manifest_key(const std::string& ns, std::int64_t v,
                                      int w) {
  return tmp_prefix(ns, v) + "delta/manifest/" + std::to_string(w);
}

/// Worker w's whole Δ payload: its dirty extents' XOR-deltas concatenated
/// in manifest order, one buffer per (version, worker).
inline std::string delta_patch_key(const std::string& ns, std::int64_t v,
                                   int w) {
  return tmp_prefix(ns, v) + "delta/patch/" + std::to_string(w);
}

}  // namespace eccheck::core::keys
