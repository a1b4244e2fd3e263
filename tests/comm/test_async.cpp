#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/mesh.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

/// Tests for the nonblocking collective engine: issue/wait semantics, the
/// handle lifetime contract, in-flight fingerprint validation, failure
/// attribution for ranks killed mid-flight, and bitwise equivalence of the
/// engines' overlapped grad-sync pattern with the blocking calls.

namespace orbit::comm {
namespace {

using check::CollectiveMismatchError;
using check::CommCheckError;

/// Run `fn` on `world` ranks, expecting an E; returns its message.
template <typename E>
std::string expect_comm_error(int world,
                              const std::function<void(RankContext&)>& fn) {
  try {
    run_spmd(world, fn);
  } catch (const E& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type: " << e.what();
    return {};
  }
  ADD_FAILURE() << "expected a diagnostic, but the run completed";
  return {};
}

TEST(AsyncCollectives, VariantsMatchSyncResults) {
  constexpr int kP = 4;
  constexpr std::int64_t kSeg = 3;
  run_spmd(kP, [&](RankContext& ctx) {
    auto g = ctx.world_group();
    const float r = static_cast<float>(ctx.rank());

    // all_reduce: sum of ranks.
    Tensor ar = Tensor::full({kSeg}, r + 1.0f);
    CommHandle h = g.all_reduce_async(ar, ReduceOp::kSum);
    EXPECT_TRUE(h.pending());
    h.wait();
    EXPECT_FALSE(h.pending());
    h.wait();  // idempotent
    for (std::int64_t i = 0; i < kSeg; ++i) {
      ASSERT_FLOAT_EQ(ar[i], static_cast<float>(kP * (kP + 1) / 2));
    }

    // all_gather: shard r holds value r.
    Tensor shard = Tensor::full({kSeg}, r);
    Tensor gathered = Tensor::empty({kSeg * kP});
    CommHandle hg = g.all_gather_async(shard, gathered);
    hg.wait();
    for (int q = 0; q < kP; ++q) {
      ASSERT_FLOAT_EQ(gathered[q * kSeg], static_cast<float>(q));
    }

    // reduce_scatter: segment s sums to p*(p-1)/2 + p*s.
    Tensor rs_in = Tensor::empty({kSeg * kP});
    for (int s = 0; s < kP; ++s) {
      for (int i = 0; i < kSeg; ++i) {
        rs_in[s * kSeg + i] = r + static_cast<float>(s);
      }
    }
    Tensor rs_out = Tensor::empty({kSeg});
    CommHandle hr = g.reduce_scatter_async(rs_in, rs_out);
    hr.wait();
    for (int i = 0; i < kSeg; ++i) {
      ASSERT_FLOAT_EQ(rs_out[i], static_cast<float>(kP * (kP - 1) / 2 +
                                                    kP * ctx.rank()));
    }

    // broadcast from the last rank.
    Tensor bc = Tensor::full({kSeg}, ctx.rank() == kP - 1 ? 9.0f : -1.0f);
    CommHandle hb = g.broadcast_async(bc, /*root=*/kP - 1);
    hb.wait();
    for (int i = 0; i < kSeg; ++i) ASSERT_FLOAT_EQ(bc[i], 9.0f);

    // gather to root 0.
    Tensor got;
    if (ctx.rank() == 0) got = Tensor::empty({kSeg * kP});
    CommHandle hga = g.gather_async(shard, got, /*root=*/0);
    hga.wait();
    if (ctx.rank() == 0) {
      for (int q = 0; q < kP; ++q) {
        ASSERT_FLOAT_EQ(got[q * kSeg], static_cast<float>(q));
      }
    }

    // scatter from root 0.
    Tensor sc_in;
    if (ctx.rank() == 0) sc_in = Tensor::arange(kSeg * kP);
    Tensor sc_out = Tensor::empty({kSeg});
    CommHandle hs = g.scatter_async(sc_in, sc_out, /*root=*/0);
    hs.wait();
    ASSERT_FLOAT_EQ(sc_out[0], static_cast<float>(ctx.rank() * kSeg));

    // barrier_async completes once every member issued it.
    CommHandle hbar = g.barrier_async();
    hbar.wait();
  });
}

TEST(AsyncCollectives, ComputeOverlapsBetweenIssueAndWait) {
  run_spmd(2, [&](RankContext& ctx) {
    auto g = ctx.world_group();
    Tensor t = Tensor::full({64}, static_cast<float>(ctx.rank() + 1));
    CommHandle h = g.all_reduce_async(t, ReduceOp::kSum);
    // Local compute while the collective is in flight: unrelated buffers
    // may be freely mutated; `t` itself must stay untouched until wait().
    Tensor local = Tensor::zeros({64});
    for (int i = 0; i < 64; ++i) local[i] = static_cast<float>(i * i);
    h.wait();
    for (std::int64_t i = 0; i < t.numel(); ++i) ASSERT_FLOAT_EQ(t[i], 3.0f);
    ASSERT_FLOAT_EQ(local[63], 63.0f * 63.0f);
  });
}

TEST(AsyncCollectives, DroppedPendingHandleThrows) {
  run_spmd(2, [&](RankContext& ctx) {
    auto g = ctx.world_group();
    Tensor t = Tensor::ones({4});
    // Dropping a pending handle is a hard error: the lost completion is
    // reported on the owner...
    EXPECT_THROW({ CommHandle h = g.all_reduce_async(t); }, std::logic_error);
    // ...and the abandoned op drains instead of wedging the group: once
    // every rank abandoned it, the group is usable again.
    Tensor u = Tensor::full({4}, 1.0f);
    g.all_reduce(u, ReduceOp::kSum);
    ASSERT_FLOAT_EQ(u[0], 2.0f);
  });
}

TEST(AsyncCollectives, MoveTransfersPendingObligation) {
  run_spmd(2, [&](RankContext& ctx) {
    auto g = ctx.world_group();
    Tensor t = Tensor::full({4}, static_cast<float>(ctx.rank()));
    CommHandle a = g.all_reduce_async(t, ReduceOp::kSum);
    CommHandle b = std::move(a);
    EXPECT_FALSE(a.pending());  // moved-from: empty, destructible
    EXPECT_TRUE(b.pending());
    // Move-assigning over a pending handle would silently drop its
    // completion; that is rejected, waiting first is fine.
    EXPECT_THROW(b = CommHandle(), std::logic_error);
    b.wait();
    ASSERT_FLOAT_EQ(t[0], 1.0f);
  });
}

TEST(AsyncCollectives, InterleavedInFlightOpsCompleteInIssueOrder) {
  constexpr int kP = 3;
  run_spmd(kP, [&](RankContext& ctx) {
    auto g = ctx.world_group();
    const float r = static_cast<float>(ctx.rank());

    // Three different collectives in flight at once, plus a synchronous
    // one issued while they are pending: sync and async ops on the same
    // group draw from one shared ticket sequence, so mixing is legal as
    // long as all ranks follow the same order.
    Tensor a = Tensor::full({8}, r);
    Tensor shard = Tensor::full({2}, r + 10.0f);
    Tensor gathered = Tensor::empty({2 * kP});
    Tensor bc = Tensor::full({5}, ctx.rank() == 0 ? 4.0f : 0.0f);
    CommHandle h1 = g.all_reduce_async(a, ReduceOp::kMax);
    CommHandle h2 = g.all_gather_async(shard, gathered);
    CommHandle h3 = g.broadcast_async(bc, /*root=*/0);

    Tensor s = Tensor::full({3}, 1.0f);
    g.all_reduce(s, ReduceOp::kSum);  // sync, with three async ops in flight
    ASSERT_FLOAT_EQ(s[0], static_cast<float>(kP));

    std::vector<CommHandle> handles;
    handles.push_back(std::move(h1));
    handles.push_back(std::move(h2));
    handles.push_back(std::move(h3));
    wait_all(handles);
    EXPECT_TRUE(handles.empty());

    ASSERT_FLOAT_EQ(a[0], static_cast<float>(kP - 1));
    for (int q = 0; q < kP; ++q) {
      ASSERT_FLOAT_EQ(gathered[q * 2], static_cast<float>(q) + 10.0f);
    }
    ASSERT_FLOAT_EQ(bc[0], 4.0f);
  });
}

TEST(AsyncCheck, IssueOrderMismatchDetected) {
  // Ranks disagree on the numel of their in-flight op: the last issuer
  // validates all fingerprints of the ticket and reports the divergence;
  // the first issuer sees the sticky poison at wait(). Both get the same
  // typed error as the synchronous checker.
  const std::string msg = expect_comm_error<CollectiveMismatchError>(
      2, [](RankContext& ctx) {
        auto g = ctx.world_group();
        Tensor t = Tensor::ones({ctx.rank() == 0 ? 8 : 4});
        CommHandle h = g.all_reduce_async(t);
        h.wait();
      });
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("numel=8"), std::string::npos) << msg;
  EXPECT_NE(msg.find("numel=4"), std::string::npos) << msg;
}

TEST(AsyncCheck, KindMismatchAcrossAsyncOpsDetected) {
  const std::string msg = expect_comm_error<CollectiveMismatchError>(
      2, [](RankContext& ctx) {
        auto g = ctx.world_group();
        Tensor t = Tensor::ones({6});
        if (ctx.rank() == 0) {
          CommHandle h = g.all_reduce_async(t);
          h.wait();
        } else {
          Tensor out = Tensor::empty({12});
          CommHandle h = g.all_gather_async(t, out);
          h.wait();
        }
      });
  EXPECT_NE(msg.find("all_reduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("all_gather"), std::string::npos) << msg;
}

TEST(AsyncChaos, RankKilledMidFlightIsRootCause) {
  // Rank 1 dies at its second collective (the async issue point counts
  // exactly like the sync staging entry). Rank 0's wait on the never-fully-
  // issued op must fail fast via peer-exit detection, and the run's root
  // cause must be the kill, not the secondary desync.
  fault::set_plan({/*rank=*/1, /*at_step=*/-1, /*at_collective=*/1});
  EXPECT_THROW(
      run_spmd(2,
               [&](RankContext& ctx) {
                 auto g = ctx.world_group();
                 Tensor a = Tensor::ones({4});
                 CommHandle h1 = g.all_reduce_async(a);   // collective 1
                 Tensor b = Tensor::ones({4});
                 CommHandle h2 = g.all_reduce_async(b);   // collective 2: boom
                 h1.wait();
                 h2.wait();
               }),
      fault::RankKilledError);
  fault::clear_plan();
}

/// One rank's replay of the engines' grad-sync pattern on a 2x2x2 mesh:
/// the tower's fsdp reduce-scatters (a packed copy of each layer's grads,
/// whose source is zeroed right after issue), then `sync_mesh_grads`'s
/// ddp/data all-reduces. `overlapped` issues every op with `*_async` and
/// drains each phase with one late `wait_all`; otherwise each op is the
/// blocking call. Returns every output buffer, concatenated.
std::vector<float> replay_grad_sync(RankContext& ctx, bool overlapped) {
  const core::HybridMesh mesh = core::HybridMesh::build(ctx, 2, 2, 2);
  Rng rng(1000 + static_cast<std::uint64_t>(ctx.rank()));
  // Odd shard lengths; randn values are non-integer, so the sums below
  // round and their order shows in the bits.
  const std::int64_t kShard[] = {7, 13, 5};
  std::vector<Tensor> layer_grads, shard_grads;
  for (std::int64_t n : kShard) {
    layer_grads.push_back(Tensor::randn({n * mesh.fsdp_group.size()}, rng));
    shard_grads.push_back(Tensor::empty({n}));
  }
  std::vector<Tensor> replicated = {Tensor::randn({9}, rng),
                                    Tensor::randn({3}, rng)};

  std::vector<CommHandle> pending;
  for (std::size_t i = 0; i < layer_grads.size(); ++i) {
    Tensor flat = layer_grads[i].clone();
    if (overlapped) {
      pending.push_back(mesh.fsdp_group.reduce_scatter_async(
          flat, shard_grads[i], ReduceOp::kAvg));
    } else {
      mesh.fsdp_group.reduce_scatter(flat, shard_grads[i], ReduceOp::kAvg);
    }
    layer_grads[i].fill_(0.0f);
  }
  wait_all(pending);

  const auto average = [&](const ProcessGroup& g, std::vector<Tensor>& ts) {
    for (Tensor& t : ts) {
      if (overlapped) {
        pending.push_back(g.all_reduce_async(t, ReduceOp::kAvg));
      } else {
        g.all_reduce(t, ReduceOp::kAvg);
      }
    }
  };
  average(mesh.ddp_group, shard_grads);
  average(mesh.data_group, replicated);
  wait_all(pending);

  std::vector<float> out;
  for (const std::vector<Tensor>* ts : {&shard_grads, &replicated}) {
    for (const Tensor& t : *ts) {
      out.insert(out.end(), t.data(), t.data() + t.numel());
    }
  }
  return out;
}

TEST(AsyncTraining, OverlappedGradSyncBitwiseEqualsBlockingOn2x2x2) {
  // The engines' only grad-sync schedule issues every collective and waits
  // late; the blocking calls are the reference. Same bytes in, same bytes
  // out — the data group has 4 members, so a changed reduction order would
  // change the rounding.
  constexpr int kWorld = 8;
  std::vector<std::vector<float>> blocking(kWorld), overlapped(kWorld);
  for (bool async_on : {false, true}) {
    auto& out = async_on ? overlapped : blocking;
    run_spmd(kWorld, [&](RankContext& ctx) {
      out[static_cast<std::size_t>(ctx.rank())] =
          replay_grad_sync(ctx, async_on);
    });
  }
  for (int r = 0; r < kWorld; ++r) {
    const auto& b = blocking[static_cast<std::size_t>(r)];
    const auto& o = overlapped[static_cast<std::size_t>(r)];
    ASSERT_EQ(b.size(), o.size()) << "rank " << r;
    ASSERT_EQ(b.size(), 7u + 13u + 5u + 9u + 3u) << "rank " << r;
    EXPECT_EQ(std::memcmp(b.data(), o.data(), b.size() * sizeof(float)), 0)
        << "rank " << r << ": overlapped grad sync diverged from blocking";
  }
}

TEST(AsyncTraffic, AsyncOpsRecordSameBytesAsSync) {
  run_spmd(4, [&](RankContext& ctx) {
    auto g = ctx.world_group();
    Tensor t = Tensor::zeros({100});
    CommHandle h = g.all_reduce_async(t);
    h.wait();
    EXPECT_EQ(g.ops_issued(), 1u);
    EXPECT_EQ(g.bytes_moved(), 1200u);  // (4-1) * 100 * 4, as for sync
    // Barriers move no data: neither form records bytes or an op.
    g.barrier();
    g.barrier_async().wait();
    EXPECT_EQ(g.ops_issued(), 1u);
    EXPECT_EQ(g.bytes_moved(), 1200u);
  });
}

TEST(AsyncCheck, BlockingAndAsyncFormsShareOneTicketSpace) {
  // Rank 0 calls the blocking form, rank 1 the async one: both take the
  // group's next ticket, so they meet in the same op. The divergence that
  // follows must name that shared sequence. A short watchdog timeout turns
  // a regression into a fast failure instead of a hang.
  check::ScopedConfig cfg(/*on=*/true, /*timeout_ms=*/1000);
  std::vector<float> got(2, 0.0f);
  const std::string msg = expect_comm_error<CollectiveMismatchError>(
      2, [&](RankContext& ctx) {
        auto g = ctx.world_group();
        Tensor t = Tensor::full({4}, static_cast<float>(ctx.rank() + 1));
        if (ctx.rank() == 0) {
          g.all_reduce(t);
        } else {
          g.all_reduce_async(t).wait();
        }
        got[static_cast<std::size_t>(ctx.rank())] = t[3];
        if (ctx.rank() == 0) {
          g.all_reduce(t);
        } else {
          g.barrier_async().wait();
        }
      });
  EXPECT_FLOAT_EQ(got[0], 3.0f);
  EXPECT_FLOAT_EQ(got[1], 3.0f);
  EXPECT_NE(msg.find("at seq 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
}

/// kComm begin events of each rank track, in order.
std::vector<std::vector<const trace::TraceEvent*>> comm_spans_per_track(
    const trace::TraceSnapshot& snap) {
  std::vector<std::vector<const trace::TraceEvent*>> out;
  for (const trace::TraceTrack& t : snap.tracks) {
    std::vector<const trace::TraceEvent*> spans;
    for (const trace::TraceEvent& e : t.events) {
      if (e.kind == trace::EventKind::kBegin &&
          e.cat == trace::Category::kComm) {
        spans.push_back(&e);
      }
    }
    if (!spans.empty()) out.push_back(std::move(spans));
  }
  return out;
}

TEST(CommSpans, BlockingCollectiveIsExactlyOneSpan) {
  // trace::summarize adds every kComm span to comm time and the per-axis op
  // count, so a blocking collective must not nest issue/wait spans inside
  // its own: one span, carrying the (p-1)*n*4 traffic bytes.
  constexpr std::int64_t kN = 256;
  constexpr std::int64_t kBytes = (2 - 1) * kN * 4;
  trace::TraceSnapshot snap;
  {
    trace::ScopedTrace capture;
    run_spmd(2, [&](RankContext& ctx) {
      ProcessGroup g = ctx.new_group({0, 1});
      g.set_axis("tp");
      Tensor t = Tensor::ones({kN});
      g.all_reduce(t);
    });
    snap = trace::snapshot();
  }
  const auto tracks = comm_spans_per_track(snap);
  ASSERT_EQ(tracks.size(), 2u);
  for (const auto& spans : tracks) {
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0]->name, "comm.all_reduce");
    EXPECT_EQ(spans[0]->detail, "tp");
    EXPECT_EQ(spans[0]->value, kBytes);
  }
  const trace::BreakdownReport report = trace::summarize(snap);
  int rank_tracks = 0;
  for (const trace::TrackBreakdown& tb : report.tracks) {
    if (tb.axes.empty()) continue;
    ++rank_tracks;
    ASSERT_EQ(tb.axes.size(), 1u);
    EXPECT_EQ(tb.axes[0].axis, "tp");
    EXPECT_EQ(tb.axes[0].ops, 1u);
    EXPECT_EQ(tb.axes[0].bytes, static_cast<std::uint64_t>(kBytes));
    EXPECT_EQ(tb.comm_bytes, static_cast<std::uint64_t>(kBytes));
  }
  EXPECT_EQ(rank_tracks, 2);
}

TEST(CommSpans, AsyncCollectiveIsIssueAndWaitPair) {
  constexpr std::int64_t kN = 256;
  trace::TraceSnapshot snap;
  {
    trace::ScopedTrace capture;
    run_spmd(2, [&](RankContext& ctx) {
      ProcessGroup g = ctx.new_group({0, 1});
      g.set_axis("tp");
      Tensor t = Tensor::ones({kN});
      g.all_reduce_async(t).wait();
    });
    snap = trace::snapshot();
  }
  const auto tracks = comm_spans_per_track(snap);
  ASSERT_EQ(tracks.size(), 2u);
  for (const auto& spans : tracks) {
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0]->name, "comm.all_reduce.issue");
    EXPECT_EQ(spans[0]->value, (2 - 1) * kN * 4);
    EXPECT_EQ(spans[1]->name, "comm.all_reduce.wait");
  }
}

}  // namespace
}  // namespace orbit::comm
