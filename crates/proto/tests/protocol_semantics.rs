//! Scripted protocol-semantics tests: hand-written node programs drive the
//! protocols through the real engine and assert the *memory-model-visible*
//! behaviour of each protocol — including the relaxed behaviours the
//! application suite (being data-race-free) can never observe, such as
//! reads of stale data before an acquire under the LRC protocols.

use dsm_core::{node_body, run_bodies, NodeBody};
use dsm_mem::Layout;
use dsm_net::Notify;
use dsm_proto::{ProtoWorld, Protocol, RunConfig};

/// Run scripted bodies on a small cluster; returns the final world.
fn run_script(
    protocol: Protocol,
    block: usize,
    nodes: usize,
    bodies: Vec<NodeBody<'_>>,
) -> ProtoWorld {
    assert_eq!(bodies.len(), nodes);
    let cfg = RunConfig::new(protocol, block).with_nodes(nodes);
    let mut world = ProtoWorld::new(cfg, Layout::new(64 * 1024, block));
    world.load_golden(vec![0u8; 64 * 1024]);
    run_bodies(world, bodies)
}

#[test]
fn sc_reads_are_always_fresh() {
    // Node 0 writes; node 1 reads strictly later in virtual time, with no
    // synchronization at all. SC must deliver the new value anyway.
    let w = run_script(
        Protocol::Sc,
        256,
        2,
        vec![
            node_body(|d| {
                Box::pin(async move {
                    d.write_u64(0, 42).await;
                    d.barrier(0).await; // only to separate write from read in time
                    d.compute(1_000_000).await;
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.barrier(0).await;
                    // No lock, no barrier after this point: a plain racy read.
                    assert_eq!(d.read_u64(0).await, 42, "SC read must be coherent");
                })
            }),
        ],
    );
    let t = w
        .stats
        .iter()
        .fold(dsm_obs::Counters::default(), |mut a, c| {
            a.add(c);
            a
        });
    assert!(t.read_faults >= 1);
    assert_eq!(t.write_notices_sent, 0);
}

#[test]
fn sw_lrc_reads_stay_stale_until_an_acquire() {
    // Node 0 takes a read-only copy, node 1 then rewrites the block (under
    // a lock it releases). Without an acquire node 0 keeps reading its old
    // copy (no invalidation!); after acquiring the same lock it must see
    // the new value.
    // Ordering is by virtual time (compute delays), NOT barriers: barriers
    // are acquires under LRC and would legitimately invalidate the copy.
    run_script(
        Protocol::SwLrc,
        256,
        2,
        vec![
            node_body(|d| {
                Box::pin(async move {
                    d.lock(0).await;
                    d.write_u64(0, 1).await; // claim ownership, version it
                    d.unlock(0).await;
                    // Node 1 rewrites around t=5ms; wait far past that without
                    // performing any acquire.
                    d.compute(20_000_000).await;
                    assert_eq!(
                        d.read_u64(0).await,
                        1,
                        "SW-LRC must NOT invalidate this copy before an acquire"
                    );
                    d.lock(0).await;
                    d.unlock(0).await;
                    // The acquire carried node 1's write notice: copy invalid,
                    // fresh fetch sees the new value.
                    assert_eq!(d.read_u64(0).await, 2, "post-acquire read must be fresh");
                    d.barrier(2).await;
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.compute(5_000_000).await;
                    d.lock(0).await;
                    d.write_u64(0, 2).await;
                    d.unlock(0).await;
                    d.barrier(2).await;
                })
            }),
        ],
    );
}

#[test]
fn sw_lrc_skips_invalidation_when_version_is_current() {
    // A reader that fetched the block AFTER the writer's release already
    // holds the newest version; the write notice arriving with a later
    // acquire must not invalidate it (the paper's "avoid unnecessary
    // invalidations" property).
    let w = run_script(
        Protocol::SwLrc,
        256,
        2,
        vec![
            node_body(|d| {
                Box::pin(async move {
                    d.lock(0).await;
                    d.write_u64(0, 7).await;
                    d.unlock(0).await;
                    d.barrier(0).await;
                    d.barrier(1).await;
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.barrier(0).await;
                    // Fresh fetch of the current version.
                    assert_eq!(d.read_u64(0).await, 7);
                    // Acquire that carries the (old) notice for version 1.
                    d.lock(0).await;
                    d.unlock(0).await;
                    assert_eq!(d.read_u64(0).await, 7);
                    d.barrier(1).await;
                })
            }),
        ],
    );
    // The reader's copy was already current: no invalidation at its acquire.
    assert_eq!(
        w.stats[1].invalidations, 0,
        "current copy must not be invalidated"
    );
}

#[test]
fn hlrc_merges_concurrent_writers_through_diffs() {
    // Two nodes write disjoint halves of the same block between barriers.
    // Each creates a twin and flushes a diff; the home merges both.
    let w = run_script(
        Protocol::Hlrc,
        256,
        3,
        vec![
            node_body(|d| {
                Box::pin(async move {
                    // Node 0 claims the home by first store touch elsewhere in
                    // the block's page? No: keep the home at a third party by
                    // having node 2 touch first.
                    d.barrier(0).await;
                    d.write_u64(0, 0xAAAA).await;
                    d.barrier(1).await;
                    assert_eq!(d.read_u64(0).await, 0xAAAA);
                    assert_eq!(d.read_u64(128).await, 0xBBBB, "peer's write must be merged");
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.barrier(0).await;
                    d.write_u64(128, 0xBBBB).await;
                    d.barrier(1).await;
                    assert_eq!(d.read_u64(0).await, 0xAAAA, "peer's write must be merged");
                    assert_eq!(d.read_u64(128).await, 0xBBBB);
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.write_u64(64, 1).await; // first store touch: node 2 becomes home
                    d.barrier(0).await;
                    d.barrier(1).await;
                })
            }),
        ],
    );
    let diffs: u64 = w.stats.iter().map(|c| c.diffs_created).sum();
    let applied: u64 = w.stats.iter().map(|c| c.diffs_applied).sum();
    assert!(diffs >= 2, "both writers must diff (got {diffs})");
    assert_eq!(diffs, applied, "every diff must be applied at the home");
    let twins: u64 = w.stats.iter().map(|c| c.twins_created).sum();
    assert!(twins >= 2);
}

#[test]
fn hlrc_reads_stay_stale_until_acquire_too() {
    run_script(
        Protocol::Hlrc,
        256,
        2,
        vec![
            node_body(|d| {
                Box::pin(async move {
                    d.write_u64(0, 5).await; // claims home
                    d.barrier(0).await;
                    d.barrier(1).await;
                    d.barrier(2).await;
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.barrier(0).await;
                    assert_eq!(d.read_u64(0).await, 5);
                    d.barrier(1).await;
                    // Node 0 does nothing more; our copy stays valid across the
                    // barrier (no notices for this block in this interval).
                    assert_eq!(d.read_u64(0).await, 5);
                    d.barrier(2).await;
                })
            }),
        ],
    );
}

#[test]
fn first_store_touch_claims_the_home() {
    let w = run_script(
        Protocol::Hlrc,
        256,
        2,
        vec![
            node_body(|d| {
                Box::pin(async move {
                    d.barrier(0).await;
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.write_u64(1024, 9).await; // block 4 at 256 B granularity
                    d.barrier(0).await;
                })
            }),
        ],
    );
    assert_eq!(w.homes.home(4), Some(1), "first writer must own the home");
    // Untouched blocks stay unclaimed.
    assert_eq!(w.homes.home(100), None);
}

#[test]
fn locks_grant_in_fifo_order() {
    // All 4 nodes contend for one lock and append their id to a log.
    // Determinism makes the grant order stable; FIFO queueing at the
    // manager means request-arrival order wins.
    let w = run_script(Protocol::Sc, 256, 4, {
        let mk = |me: usize| {
            node_body(move |d| {
                Box::pin(async move {
                    // Stagger request times by node id, far apart enough
                    // that network locality to the manager cannot reorder
                    // arrivals.
                    d.compute(1_000_000 * me as u64 + 1).await;
                    d.lock(3).await;
                    let n = d.read_u64(0).await;
                    d.write_u64(8 + n as usize * 8, me as u64).await;
                    d.write_u64(0, n + 1).await;
                    d.unlock(3).await;
                    d.barrier(0).await;
                })
            })
        };
        (0..4).map(mk).collect()
    });
    // Whoever requested first (smallest stagger) appears first.
    let img = dsm_proto::final_image(&w);
    let order: Vec<u64> = (0..4)
        .map(|i| u64::from_le_bytes(img[8 + i * 8..16 + i * 8].try_into().unwrap()))
        .collect();
    assert_eq!(
        order,
        vec![0, 1, 2, 3],
        "lock grants must be FIFO: {order:?}"
    );
}

#[test]
fn sc_write_sharing_ping_pongs_ownership() {
    // Two nodes alternately write the same block, synchronized by barriers.
    // Each write after the first must fault (the peer invalidated us).
    let rounds = 6u64;
    let w = run_script(
        Protocol::Sc,
        64,
        2,
        vec![
            node_body(move |d| {
                Box::pin(async move {
                    for r in 0..rounds {
                        d.write_u64(0, r).await;
                        d.barrier(0).await;
                        d.barrier(1).await;
                    }
                })
            }),
            node_body(move |d| {
                Box::pin(async move {
                    for r in 0..rounds {
                        d.barrier(0).await;
                        d.write_u64(0, 100 + r).await;
                        d.barrier(1).await;
                    }
                })
            }),
        ],
    );
    let wf: u64 = w.stats.iter().map(|c| c.write_faults).sum();
    assert!(
        wf >= 2 * rounds - 2,
        "alternating writers must ping-pong: {wf} write faults for {rounds} rounds"
    );
    let inv: u64 = w.stats.iter().map(|c| c.invalidations).sum();
    assert!(inv >= rounds, "each steal must invalidate the peer");
}

#[test]
fn hlrc_avoids_the_ping_pong_entirely() {
    // Both nodes write many disjoint words of the same falsely-shared
    // 64-byte block within each round. Under SC every write risks a
    // transfer (the peer steals the block between writes); under HLRC each
    // node faults at most once per round (fetch + twin) no matter how many
    // writes follow.
    let rounds = 4u64;
    let writes_per_round = 4usize;
    let run = |protocol: Protocol| {
        let w = run_script(
            protocol,
            64,
            2,
            vec![
                node_body(move |d| {
                    Box::pin(async move {
                        for r in 0..rounds {
                            for k in 0..writes_per_round {
                                d.write_u64(k * 8, r).await;
                                d.compute(50_000).await; // give the peer time to interleave
                            }
                            d.barrier(0).await;
                        }
                    })
                }),
                node_body(move |d| {
                    Box::pin(async move {
                        for r in 0..rounds {
                            for k in 0..writes_per_round {
                                d.write_u64(32 + k * 8, 100 + r).await;
                                d.compute(50_000).await;
                            }
                            d.barrier(0).await;
                        }
                    })
                }),
            ],
        );
        w.stats.iter().map(|c| c.write_faults).sum::<u64>()
    };
    let sc = run(Protocol::Sc);
    let hlrc = run(Protocol::Hlrc);
    assert!(
        hlrc <= 2 * rounds + 2,
        "HLRC: at most one remote write fault per node per round, got {hlrc}"
    );
    assert!(
        sc > hlrc,
        "SC must ping-pong where HLRC does not: SC {sc} vs HLRC {hlrc}"
    );
}

#[test]
fn interrupt_grace_window_defers_invalidations() {
    // Under interrupts, a node that just obtained a block defers incoming
    // asynchronous requests for the grace window, batching its local
    // accesses (the delayed-consistency effect). We assert the mechanism
    // engages by comparing total faults against polling for a ping-pong
    // pattern without barriers.
    let run = |notify: Notify| {
        let cfg = RunConfig::new(Protocol::Sc, 64)
            .with_nodes(2)
            .with_notify(notify);
        let mut world = ProtoWorld::new(cfg, Layout::new(4096, 64));
        world.load_golden(vec![0u8; 4096]);
        let mk = |me: usize| {
            node_body(move |d| {
                Box::pin(async move {
                    for r in 0..200u64 {
                        let v = d.read_u64(0).await;
                        d.write_u64(8 + me * 8, v.wrapping_add(r)).await;
                        d.write_u64(0, v + 1).await;
                        d.compute(5_000).await;
                    }
                })
            })
        };
        let w = run_bodies(world, vec![mk(0), mk(1)]);
        w.stats
            .iter()
            .map(|c| c.read_faults + c.write_faults)
            .sum::<u64>()
    };
    let poll_faults = run(Notify::Polling);
    let intr_faults = run(Notify::Interrupt);
    assert!(
        intr_faults < poll_faults,
        "interrupt grace window must reduce ping-pong faults: {intr_faults} vs {poll_faults}"
    );
}

#[test]
fn a_spanning_access_faults_on_every_block_it_covers() {
    // 16 bytes at 56 under 64-byte blocks: the run-time cuts the access at
    // the block boundary and each piece is checked against its own block.
    let w = run_script(
        Protocol::Sc,
        64,
        2,
        vec![
            node_body(|d| {
                Box::pin(async move {
                    let mut buf = [0u8; 16];
                    d.read(56, &mut buf).await;
                })
            }),
            node_body(|_| Box::pin(async {})),
        ],
    );
    assert_eq!(w.stats[0].read_faults, 2);
    assert!(w.access.get(0, 0).readable() && w.access.get(0, 1).readable());
    assert!(!w.access.get(0, 2).readable());
}

#[test]
#[should_panic(expected = "out of shared space")]
fn an_access_past_the_end_of_the_shared_space_is_refused() {
    run_script(
        Protocol::Sc,
        64,
        1,
        vec![node_body(|d| {
            Box::pin(async move {
                d.read_u64(64 * 1024 - 4).await;
            })
        })],
    );
}
