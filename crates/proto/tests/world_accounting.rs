//! Unit-level tests of the world's message accounting, home routing, and
//! final-image extraction.

use dsm_mem::{Access, Layout};
use dsm_net::MSG_HEADER_BYTES;
use dsm_proto::{final_image, ProtoWorld, Protocol, RunConfig};

fn world(p: Protocol, nodes: usize) -> ProtoWorld {
    let mut w = ProtoWorld::new(
        RunConfig::new(p, 256).with_nodes(nodes),
        Layout::new(4096, 256),
    );
    w.load_golden((0..4096).map(|i| i as u8).collect());
    w
}

#[test]
fn route_home_prefers_claimed_over_directory() {
    let mut w = world(Protocol::Hlrc, 4);
    // Unclaimed: static directory node (block % nodes).
    assert_eq!(w.route_home(5), 1);
    assert_eq!(w.route_home(6), 2);
    w.homes.claim_for(5, 3);
    assert_eq!(w.route_home(5), 3);
}

#[test]
fn golden_image_reaches_every_node_copy() {
    // No byte is copied at load: every node *reads* the image, block by
    // block, and a node's own bytes arrive with its first grant.
    let mut w = world(Protocol::Sc, 4);
    for n in 0..4 {
        assert_eq!(w.data.block(n, 0)[100], 100);
        assert_eq!(w.data.block(n, 15)[255], (4095 % 256) as u8);
        assert!(!w.data.is_present(n, 0));
    }
    w.grant(2, 0, Access::Read);
    assert_eq!(w.data.node(2)[100], 100);
    assert!(w.data.is_present(2, 0) && !w.data.is_present(1, 0));
}

#[test]
fn final_image_prefers_authoritative_copies() {
    // Under SC, an exclusive owner's copy wins over the home's.
    let mut w = world(Protocol::Sc, 4);
    // Fake a directory state: block 0 claimed by node 1, exclusively owned
    // by node 2 with modified data.
    w.homes.claim_for(0, 1);
    w.grant(2, 0, Access::ReadWrite);
    w.data.node_mut(2, 0)[0] = 0xEE;
    // Register node 2 as exclusive owner in the directory.
    // (Exercised through the protocol in integration tests; here we check
    // the home fallback when the directory has no owner.)
    let img = final_image(&w);
    // No owner recorded in the directory => home's (golden) copy is chosen.
    assert_eq!(img[0], 0);
    assert_eq!(img[300], 44); // 300 % 256, from the golden pattern
}

#[test]
fn static_homes_config_preassigns_every_block() {
    let cfg = RunConfig::new(Protocol::Sc, 256)
        .with_nodes(4)
        .with_static_homes();
    let w = ProtoWorld::new(cfg, Layout::new(4096, 256));
    for b in 0..16 {
        assert_eq!(w.homes.home(b), Some(b % 4));
    }
}

#[test]
fn first_touch_config_leaves_blocks_unclaimed() {
    let w = world(Protocol::Sc, 4);
    for b in 0..16 {
        assert_eq!(w.homes.home(b), None);
    }
}

#[test]
fn lock_and_barrier_tables_grow_on_demand() {
    let mut w = world(Protocol::Sc, 4);
    assert!(w.locks.is_empty());
    w.lock_mut(17);
    assert_eq!(w.locks.len(), 18);
    assert!(!w.locks[17].held);
    w.barrier_mut(3);
    assert_eq!(w.barriers.len(), 1);
    assert!(w.barriers[&3].arrived.is_empty());
}

#[test]
fn header_bytes_are_charged_per_message() {
    // Per-message accounting is validated end to end: a two-node SC run's
    // control bytes are at least one header per message sent.
    use dsm_core::{node_body, run_bodies};
    let w = run_bodies(
        world(Protocol::Sc, 2),
        vec![
            node_body(|d| {
                Box::pin(async move {
                    d.write_u64(256, 1).await; // one remote-ish fault
                    d.barrier(0).await;
                })
            }),
            node_body(|d| {
                Box::pin(async move {
                    d.barrier(0).await;
                    let _ = d.read_u64(256).await;
                })
            }),
        ],
    );
    let msgs: u64 = w.stats.iter().map(|c| c.msgs_sent).sum();
    let ctrl: u64 = w.stats.iter().map(|c| c.ctrl_bytes).sum();
    assert!(msgs > 0);
    assert!(ctrl >= msgs * MSG_HEADER_BYTES, "{ctrl} < {msgs} headers");
}
