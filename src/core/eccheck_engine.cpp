#include "core/eccheck_engine.hpp"

#include <algorithm>

#include "cluster/fabric.hpp"
#include "core/fabric_engine.hpp"
#include "obs/stats.hpp"

namespace eccheck::core {

namespace {

/// What the schedule charges for one worker: its tensor bytes (DtoH
/// snapshot, packets) and its two serialized blobs (metadata + tensor keys).
struct WorkerSizes {
  std::size_t tensor = 0;
  std::size_t blobs = 0;
};

std::vector<WorkerSizes> worker_sizes(std::span<const dnn::StateDict> shards) {
  std::vector<WorkerSizes> sizes;
  for (const dnn::StateDict& sd : shards) {
    const Decomposition dec = decompose(sd);
    sizes.push_back(
        {dec.tensor_bytes, dec.metadata_blob.size() + dec.keys_blob.size()});
  }
  return sizes;
}

/// Packets per worker: uniform so reduction groups align (§III-C).
std::size_t uniform_packets(const std::vector<WorkerSizes>& sizes,
                            std::size_t P) {
  std::size_t B = 1;
  for (const WorkerSizes& s : sizes)
    B = std::max(B, packets_needed(s.tensor, P));
  return B;
}

std::vector<const dnn::StateDict*> pointers(
    std::span<const dnn::StateDict> shards) {
  std::vector<const dnn::StateDict*> p;
  for (const auto& sd : shards) p.push_back(&sd);
  return p;
}

}  // namespace

ScheduleScope::ScheduleScope(cluster::VirtualCluster& cluster,
                             obs::StatsRegistry::CounterMap counters)
    : cluster_(cluster), hook_(cluster.fault_hook()) {
  cluster_.reset_timeline();
  cluster_.stats().restore_counters(std::move(counters));
  cluster_.set_fault_hook(nullptr);
}

ScheduleScope::~ScheduleScope() { cluster_.set_fault_hook(hook_); }

ECCheckEngine::ECCheckEngine(ECCheckConfig cfg) : cfg_(cfg) {
  ECC_CHECK(cfg_.k >= 1 && cfg_.m >= 0);
  ECC_CHECK(cfg_.packet_size > 0);
}

Placement ECCheckEngine::plan_for(
    const cluster::VirtualCluster& cluster) const {
  return core::plan_for(cluster.num_nodes(), cluster.gpus_per_node(), cfg_.k,
                        cfg_.m);
}

ckpt::SaveReport ECCheckEngine::save(cluster::VirtualCluster& cluster,
                                     const std::vector<dnn::StateDict>& shards,
                                     std::int64_t version) {
  return timed_save(cluster, shards, [&] {
    cluster::VirtualFabric fabric(cluster);
    fabric_save(fabric, cfg_, pointers(shards), version);
  });
}

ckpt::LoadReport ECCheckEngine::load(cluster::VirtualCluster& cluster,
                                     std::int64_t version,
                                     std::vector<dnn::StateDict>& out) {
  for (int node = 0; node < cluster.num_nodes(); ++node)
    ECC_CHECK_MSG(cluster.alive(node),
                  "dead node " << node << " must be replace()d before load");
  return timed_load(cluster, out, [&] {
    cluster::VirtualFabric fabric(cluster);
    return fabric_load(fabric, cfg_, version, out);
  });
}

ckpt::SaveReport ECCheckEngine::timed_save(
    cluster::VirtualCluster& cluster, std::span<const dnn::StateDict> shards,
    const std::function<void()>& move_bytes) const {
  auto counters = cluster.stats().counters();
  move_bytes();
  ScheduleScope scope(cluster, std::move(counters));
  return schedule_save(cluster::ClusterSlice(cluster), shards);
}

ckpt::LoadReport ECCheckEngine::timed_load(
    cluster::VirtualCluster& cluster, const std::vector<dnn::StateDict>& out,
    const std::function<ckpt::LoadReport()>& move_bytes) const {
  auto counters = cluster.stats().counters();
  const ckpt::LoadReport moved = move_bytes();
  ScheduleScope scope(cluster, std::move(counters));
  return schedule_load(cluster::ClusterSlice(cluster), moved, out);
}

// ---------------------------------------------------------------------------
// save schedule
// ---------------------------------------------------------------------------

ckpt::SaveReport ECCheckEngine::schedule_save(
    cluster::ClusterSlice cluster,
    std::span<const dnn::StateDict> shards) const {
  ECC_CHECK(static_cast<int>(shards.size()) == cluster.world_size());
  ckpt::SaveReport rep;
  const auto stats_base = cluster.stats().counters();

  const Placement plan = core::plan_for(
      cluster.num_nodes(), cluster.gpus_per_node(), cfg_.k, cfg_.m);
  const int W = cluster.world_size();
  const int per_chunk = plan.workers_per_chunk();
  const std::size_t P = cfg_.packet_size;
  const double scale = cluster.config().size_scale;
  const bool idle = cfg_.idle_aware_comm;
  const std::vector<WorkerSizes> sizes = worker_sizes(shards);
  const std::size_t B = uniform_packets(sizes, P);

  // ---- Step 1: decompose + snapshot (blocking) --------------------------
  std::vector<std::vector<cluster::TaskId>> pack_done(
      static_cast<std::size_t>(W));
  std::vector<cluster::TaskId> meta_ser(static_cast<std::size_t>(W));
  Seconds stall = 0;
  for (int w = 0; w < W; ++w) {
    const int node = cluster::slice_node_of_worker(cluster, w);
    const int gpu = cluster::slice_gpu_of_worker(cluster, w);
    const WorkerSizes& sz = sizes[static_cast<std::size_t>(w)];

    cluster::TaskId snap = cluster.dtoh(node, gpu, sz.tensor, {});
    meta_ser[static_cast<std::size_t>(w)] =
        cluster.cpu_serialize(node, sz.blobs, {});
    stall = std::max({stall, cluster.timeline().finish_time(snap),
                      cluster.timeline().finish_time(
                          meta_ser[static_cast<std::size_t>(w)])});

    // Pack tensor bytes into B fixed-size packets (async, per packet).
    for (std::size_t b = 0; b < B; ++b)
      pack_done[static_cast<std::size_t>(w)].push_back(
          cluster.host_copy(node, P, {snap}));
  }
  rep.breakdown[stage_key(Stage::kSnapshot)] = stall;
  rep.stall_time = stall;

  // ---- Step 2: broadcast metadata + tensor keys --------------------------
  Seconds meta_bcast_finish = stall;
  for (int w = 0; w < W; ++w) {
    const int src = cluster::slice_node_of_worker(cluster, w);
    const std::size_t blob = sizes[static_cast<std::size_t>(w)].blobs;
    for (int d = 0; d < cluster.num_nodes(); ++d) {
      if (d == src) continue;
      cluster::TaskId t = cluster.net_send(
          src, d, blob, {meta_ser[static_cast<std::size_t>(w)]}, idle,
          "meta_bcast");
      rep.network_bytes += static_cast<std::size_t>(blob * scale);
      meta_bcast_finish =
          std::max(meta_bcast_finish, cluster.timeline().finish_time(t));
    }
  }
  rep.breakdown[stage_key(Stage::kMetadataBroadcast)] = meta_bcast_finish;

  // ---- Step 3: encode → XOR-reduce → P2P ---------------------------------
  // A stripe is one (reduction group j, buffer b) pair: it touches packet b
  // of each chunk's j-th worker. Emission is stage-major — all relocations,
  // then all encodes, then the XOR chains — mirroring the paper's dedicated
  // encoding / XOR-reduction / P2P threads (§IV-C): each stage streams
  // packets in order, and stages overlap across the per-node CPU, XOR and
  // NIC resources. With cfg_.pipelined == false a barrier separates the
  // encode stage from everything downstream (ablation).
  std::vector<Seconds> row_finish(static_cast<std::size_t>(cfg_.k + cfg_.m),
                                  stall);

  struct StripeWork {
    int j, b;
  };
  std::vector<StripeWork> stripes;
  for (int j = 0; j < per_chunk; ++j)
    for (int b = 0; b < static_cast<int>(B); ++b) stripes.push_back({j, b});

  auto count_net = [&](std::size_t bytes) {
    rep.network_bytes += static_cast<std::size_t>(bytes * scale);
  };

  // Stage 3a: data-packet relocation to data nodes (ready after packing).
  for (const auto& s : stripes) {
    for (int c = 0; c < cfg_.k; ++c) {
      const int wsrc = c * per_chunk + s.j;
      const int src = cluster::slice_node_of_worker(cluster, wsrc);
      const int dst = plan.data_nodes[static_cast<std::size_t>(c)];
      cluster::TaskId t = pack_done[static_cast<std::size_t>(wsrc)]
                                   [static_cast<std::size_t>(s.b)];
      if (src != dst) {
        t = cluster.net_send(src, dst, P, {t}, idle, "p2p_data");
        count_net(P);
      }
      row_finish[static_cast<std::size_t>(c)] =
          std::max(row_finish[static_cast<std::size_t>(c)],
                   cluster.timeline().finish_time(t));
    }
  }

  // Stage 3b: every per-participant partial encode.
  std::vector<std::vector<cluster::TaskId>> enc_tasks(stripes.size());
  for (std::size_t si = 0; si < stripes.size(); ++si) {
    const auto& s = stripes[si];
    enc_tasks[si].resize(static_cast<std::size_t>(cfg_.m * cfg_.k));
    for (int r = 0; r < cfg_.m; ++r) {
      const auto& op =
          plan.reductions[static_cast<std::size_t>(s.j * cfg_.m + r)];
      for (int c = 0; c < cfg_.k; ++c) {
        const int pw = op.participants[static_cast<std::size_t>(c)];
        enc_tasks[si][static_cast<std::size_t>(r * cfg_.k + c)] =
            cluster.cpu_code(cluster::slice_node_of_worker(cluster, pw), P,
                             {pack_done[static_cast<std::size_t>(pw)]
                                       [static_cast<std::size_t>(s.b)]});
      }
    }
  }
  cluster::TaskId encode_barrier = -1;
  if (!cfg_.pipelined) {
    std::vector<cluster::TaskId> all_encodes;
    for (const auto& v : enc_tasks)
      all_encodes.insert(all_encodes.end(), v.begin(), v.end());
    encode_barrier = cluster.barrier(all_encodes);
  }

  // Stage 3c: XOR-reduction chains ending at each target, then the final
  // P2P hop to the parity node.
  for (std::size_t si = 0; si < stripes.size(); ++si) {
    for (int r = 0; r < cfg_.m; ++r) {
      const auto& op = plan.reductions[static_cast<std::size_t>(
          stripes[si].j * cfg_.m + r)];
      auto enc_of = [&](int c) {
        return cfg_.pipelined
                   ? enc_tasks[si][static_cast<std::size_t>(r * cfg_.k + c)]
                   : encode_barrier;
      };

      // Chain-XOR along the participants, ending at the target.
      std::vector<int> chain;
      std::vector<cluster::TaskId> chain_enc;
      int target_c = -1;
      for (int c = 0; c < cfg_.k; ++c) {
        const int pw = op.participants[static_cast<std::size_t>(c)];
        if (pw == op.target_worker) {
          target_c = c;
          continue;
        }
        chain.push_back(pw);
        chain_enc.push_back(enc_of(c));
      }
      ECC_CHECK(target_c >= 0);
      chain.push_back(op.target_worker);
      chain_enc.push_back(enc_of(target_c));

      cluster::TaskId carry;
      if (!cfg_.tree_reduction) {
        carry = chain_enc[0];
        for (std::size_t i = 1; i < chain.size(); ++i) {
          const int a = cluster::slice_node_of_worker(cluster, chain[i - 1]);
          const int d = cluster::slice_node_of_worker(cluster, chain[i]);
          cluster::TaskId arrive = carry;
          if (a != d) {
            arrive = cluster.net_send(a, d, P, {carry}, idle, "xor_reduce");
            count_net(P);
          }
          carry = cluster.cpu_xor(d, P, {arrive, chain_enc[i]});
        }
      } else {
        // Binary tree rooted at the target (last element of `chain`):
        // reverse so the target sits at index 0, then halve each round.
        std::vector<int> order(chain.rbegin(), chain.rend());
        std::vector<cluster::TaskId> hold(chain_enc.rbegin(),
                                          chain_enc.rend());
        for (std::size_t step = 1; step < order.size(); step *= 2) {
          for (std::size_t i = 0; i + step < order.size(); i += 2 * step) {
            const int a =
                cluster::slice_node_of_worker(cluster, order[i + step]);
            const int d = cluster::slice_node_of_worker(cluster, order[i]);
            cluster::TaskId arrive = hold[i + step];
            if (a != d) {
              arrive = cluster.net_send(a, d, P, {arrive}, idle,
                                        "xor_reduce_tree");
              count_net(P);
            }
            hold[i] = cluster.cpu_xor(d, P, {arrive, hold[i]});
          }
        }
        carry = hold[0];
      }
      // Final hop to the parity node if the target worker lives elsewhere.
      const int tnode = cluster::slice_node_of_worker(cluster, op.target_worker);
      cluster::TaskId done = carry;
      if (tnode != op.dest_node) {
        done = cluster.net_send(tnode, op.dest_node, P, {carry}, idle,
                                "p2p_parity");
        count_net(P);
      }
      row_finish[static_cast<std::size_t>(cfg_.k + r)] =
          std::max(row_finish[static_cast<std::size_t>(cfg_.k + r)],
                   cluster.timeline().finish_time(done));
    }
  }

  Seconds encode_finish = stall;
  for (Seconds f : row_finish) encode_finish = std::max(encode_finish, f);
  encode_finish = std::max(encode_finish, meta_bcast_finish);
  rep.breakdown[stage_key(Stage::kEncodePipeline)] = encode_finish;
  rep.total_time = encode_finish;

  // ---- Step 4: low-frequency remote flush --------------------------------
  if (cfg_.flush_to_remote) {
    Seconds flush_finish = encode_finish;
    for (int row = 0; row < cfg_.k + cfg_.m; ++row) {
      const int node = plan.node_of_row(row);
      for (int j = 0; j < per_chunk; ++j) {
        for (int b = 0; b < static_cast<int>(B); ++b) {
          cluster::TaskId t = cluster.remote_write(node, P, {});
          rep.remote_bytes += static_cast<std::size_t>(P * scale);
          flush_finish =
              std::max(flush_finish, cluster.timeline().finish_time(t));
        }
      }
    }
    rep.breakdown[stage_key(Stage::kRemoteFlush)] = flush_finish;
    rep.total_time = std::max(rep.total_time, flush_finish);
  }

  rep.stats =
      obs::StatsRegistry::delta(cluster.stats().counters(), stats_base);
  return rep;
}

// ---------------------------------------------------------------------------
// load schedule
// ---------------------------------------------------------------------------

ckpt::LoadReport ECCheckEngine::schedule_load(
    cluster::ClusterSlice cluster, const ckpt::LoadReport& moved,
    const std::vector<dnn::StateDict>& out) const {
  ckpt::LoadReport rep;
  rep.detail = moved.detail;
  if (!moved.success) return rep;
  const auto stats_base = cluster.stats().counters();

  const Placement plan = core::plan_for(
      cluster.num_nodes(), cluster.gpus_per_node(), cfg_.k, cfg_.m);
  const int W = cluster.world_size();
  const int n = cluster.num_nodes();
  const int per_chunk = plan.workers_per_chunk();
  const std::size_t P = cfg_.packet_size;
  ECC_CHECK(static_cast<int>(out.size()) == W &&
            static_cast<int>(moved.rows.size()) == n &&
            static_cast<int>(moved.metadata_refreshed.size()) == n);
  const std::vector<WorkerSizes> sizes = worker_sizes(out);
  const std::size_t B = uniform_packets(sizes, P);

  // ---- which chunk rows survived, as the byte plane's round 1 agreed ----
  std::vector<int> survivor_rows, missing_rows, refetched_rows;
  for (int row = 0; row < n; ++row) {
    switch (moved.rows[static_cast<std::size_t>(row)]) {
      case ckpt::RowOutcome::kIntact:
        survivor_rows.push_back(row);
        break;
      case ckpt::RowOutcome::kMissing:
        missing_rows.push_back(row);
        break;
      case ckpt::RowOutcome::kRefetched:
        survivor_rows.push_back(row);
        refetched_rows.push_back(row);
        break;
    }
  }

  // ---- catastrophic path: rows refetched from the remote flush -----------
  // Every remote fetch is a timed task whose finish gates everything built
  // on the refetched row (reconstruction, refill, resume): the slow 5 Gbps
  // storage link shows up in the Fig. 13-style recovery numbers instead of
  // being silently dropped from the timeline.
  std::vector<Seconds> row_ready(static_cast<std::size_t>(cfg_.k + cfg_.m),
                                 0);
  std::vector<Seconds> node_meta_ready(static_cast<std::size_t>(n), 0);
  for (int row : refetched_rows) {
    const int node = plan.node_of_row(row);
    Seconds fetched = 0;
    for (int j = 0; j < per_chunk; ++j)
      for (int b = 0; b < static_cast<int>(B); ++b) {
        cluster::TaskId t = cluster.remote_read(node, P, {});
        fetched = std::max(fetched, cluster.timeline().finish_time(t));
      }
    row_ready[static_cast<std::size_t>(row)] = fetched;
  }

  // ---- metadata refresh ---------------------------------------------------
  // Nodes without every worker's blobs read them back from the remote flush
  // alongside the rows (sharing the storage link), or else from the first
  // node that held them all (the step-2 broadcast invariant).
  std::size_t all_blobs = 0;
  for (const WorkerSizes& s : sizes) all_blobs += s.blobs;
  const auto& refreshed = moved.metadata_refreshed;
  const int meta_holder = static_cast<int>(
      std::find(refreshed.begin(), refreshed.end(), false) -
      refreshed.begin());
  for (int node = 0; node < n; ++node) {
    if (!refreshed[static_cast<std::size_t>(node)]) continue;
    Seconds done = 0;
    if (!refetched_rows.empty()) {
      done = cluster.timeline().finish_time(
          cluster.remote_read(node, all_blobs, {}));
    } else {
      ECC_CHECK(meta_holder < n);
      for (int w = 0; w < W; ++w) {
        cluster::TaskId t = cluster.net_send(
            meta_holder, node, sizes[static_cast<std::size_t>(w)].blobs, {},
            false, "meta_refetch");
        done = std::max(done, cluster.timeline().finish_time(t));
      }
    }
    node_meta_ready[static_cast<std::size_t>(node)] = done;
  }

  // ---- reconstruct lost rows from any k survivors -------------------------
  // Workflow A (all data rows alive) degenerates to re-encoding the lost
  // parity rows; workflow B decodes lost data rows with the inverted
  // submatrix. Both are the same distributed pass with a different
  // reconstruction matrix (§III-C: "the decoding protocol follows the same
  // three-step procedure ... replacing the encoding matrix by the decoding
  // matrix"). Ordering follows the paper: lost *data* rows are rebuilt
  // before training resumes; lost *parity* rows are restored afterwards
  // ("each node can use its checkpoint data to resume training. Then the
  // lost parity packets are encoded...").
  std::vector<int> missing_data, missing_parity;
  for (int r : missing_rows)
    (r < cfg_.k ? missing_data : missing_parity).push_back(r);

  // Distributed reconstruction pass: rebuild `targets` from the k-row
  // `basis`, releasing no task before `not_before`.
  auto reconstruct = [&](const std::vector<int>& basis,
                         const std::vector<int>& targets,
                         Seconds not_before) {
    if (targets.empty()) return;
    sim::TaskOptions release;
    release.not_before = not_before;
    // Basis rows that came back over the remote link gate the whole pass.
    for (int r : basis)
      release.not_before = std::max(release.not_before,
                                    row_ready[static_cast<std::size_t>(r)]);
    cluster::TaskId gate = cluster.timeline().add_task(
        "reconstruct_gate", sim::kNoResource, 0, {}, release);

    for (int j = 0; j < per_chunk; ++j) {
      for (int b = 0; b < static_cast<int>(B); ++b) {
        // Partial products at each survivor, one per target row.
        for (const int target_row : targets) {
          const int target_node = plan.node_of_row(target_row);
          cluster::TaskId carry = -1;
          for (int s = 0; s < cfg_.k; ++s) {
            const int snode =
                plan.node_of_row(basis[static_cast<std::size_t>(s)]);
            cluster::TaskId part = cluster.cpu_code(snode, P, {gate});
            if (carry < 0) {
              carry = part;
            } else {
              const int prev_node =
                  plan.node_of_row(basis[static_cast<std::size_t>(s - 1)]);
              cluster::TaskId arrive = carry;
              if (prev_node != snode)
                arrive = cluster.net_send(prev_node, snode, P, {carry}, false,
                                          "decode_reduce");
              carry = cluster.cpu_xor(snode, P, {arrive, part});
            }
          }
          const int last_node =
              plan.node_of_row(basis[static_cast<std::size_t>(cfg_.k - 1)]);
          cluster::TaskId done = carry;
          if (last_node != target_node)
            done = cluster.net_send(last_node, target_node, P, {carry}, false,
                                    "decode_p2p");
          row_ready[static_cast<std::size_t>(target_row)] =
              std::max(row_ready[static_cast<std::size_t>(target_row)],
                       cluster.timeline().finish_time(done));
        }
      }
    }
  };

  std::vector<int> basis(survivor_rows.begin(),
                         survivor_rows.begin() + cfg_.k);
  reconstruct(basis, missing_data, 0);

  // ---- refill every worker's own packets and rebuild state_dicts ---------
  Seconds resume = 0;
  for (int w = 0; w < W; ++w) {
    const int node = cluster::slice_node_of_worker(cluster, w);
    const int c = plan.chunk_of_worker(w);
    const int src = plan.data_nodes[static_cast<std::size_t>(c)];

    const Seconds ready =
        std::max(row_ready[static_cast<std::size_t>(c)],
                 node_meta_ready[static_cast<std::size_t>(node)]);
    cluster::TaskId last = -1;
    for (int b = 0; src != node && b < static_cast<int>(B); ++b) {
      sim::TaskOptions opts;
      opts.not_before = ready;
      last = cluster.timeline().add_task(
          "refill", {cluster.nic_tx(src), cluster.nic_rx(node)},
          static_cast<double>(P) * cluster.config().size_scale /
              cluster.config().nic_bandwidth,
          {}, opts);
    }
    const Seconds packets_at =
        last >= 0 ? cluster.timeline().finish_time(last) : ready;

    // Skeleton rebuild: deserialize tiny components + in-place unpack.
    sim::TaskOptions opts;
    opts.not_before = packets_at;
    cluster::TaskId unpack = cluster.timeline().add_task(
        "unpack", cluster.cpu(node),
        static_cast<double>(B) * static_cast<double>(P) *
            cluster.config().size_scale /
            cluster.config().host_memcpy_bandwidth,
        {}, opts);
    resume = std::max(resume, cluster.timeline().finish_time(unpack));
  }

  // Restore redundancy: lost parity rows are re-encoded after resume, from
  // the now-complete set of data rows.
  {
    std::vector<int> data_basis;
    for (int c = 0; c < cfg_.k; ++c) data_basis.push_back(c);
    reconstruct(data_basis, missing_parity, resume);
  }

  Seconds total = resume;
  for (Seconds t : row_ready) total = std::max(total, t);

  rep.success = true;
  rep.resume_time = resume;
  rep.total_time = total;
  rep.rows = moved.rows;
  rep.metadata_refreshed = moved.metadata_refreshed;
  rep.stats =
      obs::StatsRegistry::delta(cluster.stats().counters(), stats_base);
  return rep;
}

}  // namespace eccheck::core
