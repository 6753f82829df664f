//! The batched deputy API end-to-end: `AppCtx::submit_batch` moves N flow
//! operations across the app→KSD channel in one crossing, checks them under
//! a single engine snapshot, and applies them atomically (rollback on any
//! failure). Also covers the kernel-level `execute_batch` entry point and
//! the context-epoch plumbing the read fast lane revalidates against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sdnshield_controller::api::{ApiError, FlowOp};
use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::audit::AuditOutcome;
use sdnshield_controller::isolation::ShieldedController;
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::AppId;
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, Ipv4, PortNo, Priority};

const BATCH: usize = 64;

fn op(dpid: u64, third_octet: u8, tp_dst: u16) -> FlowOp {
    FlowOp {
        dpid: DatapathId(dpid),
        flow_mod: FlowMod::add(
            FlowMatch {
                ip_dst: Some(MaskedIpv4::prefix(Ipv4::new(10, 13, third_octet, 0), 24)),
                ..FlowMatch::default()
            }
            .with_tp_dst(tp_dst),
            Priority(100),
            ActionList::output(PortNo(1)),
        ),
    }
}

/// Pushes one batch from on_start and records the outcome.
struct BatchApp {
    ops: Vec<FlowOp>,
    applied: Arc<AtomicUsize>,
    aborted: Arc<AtomicUsize>,
}

impl App for BatchApp {
    fn name(&self) -> &str {
        "batcher"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        match ctx.submit_batch(std::mem::take(&mut self.ops)) {
            Ok(n) => {
                self.applied.fetch_add(n, Ordering::SeqCst);
            }
            Err(ApiError::TransactionAborted { failed_index, .. }) => {
                self.aborted.store(failed_index + 1, Ordering::SeqCst);
            }
            Err(e) => panic!("unexpected batch error: {e:?}"),
        }
    }
}

#[test]
fn submit_batch_applies_all_ops_in_one_crossing() {
    let c = ShieldedController::new(Network::new(builders::linear(3), 1024), 2);
    let applied = Arc::new(AtomicUsize::new(0));
    let aborted = Arc::new(AtomicUsize::new(0));
    let ops: Vec<FlowOp> = (0..BATCH).map(|i| op(1, i as u8, 80 + i as u16)).collect();
    c.register(
        Box::new(BatchApp {
            ops,
            applied: Arc::clone(&applied),
            aborted: Arc::clone(&aborted),
        }),
        &parse_manifest("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0").unwrap(),
    )
    .unwrap();
    assert_eq!(applied.load(Ordering::SeqCst), BATCH);
    assert_eq!(aborted.load(Ordering::SeqCst), 0);
    assert_eq!(c.kernel().flow_count(DatapathId(1)), BATCH);
    // The whole batch produced exactly one audit record.
    let batch_records: Vec<_> = c
        .kernel()
        .audit_records_since(0)
        .into_iter()
        .filter(|r| r.operation == "batch")
        .collect();
    assert_eq!(batch_records.len(), 1);
    assert_eq!(batch_records[0].outcome, AuditOutcome::Allowed);
    c.shutdown();
}

#[test]
fn denied_op_aborts_whole_batch_atomically() {
    let c = ShieldedController::new(Network::new(builders::linear(3), 1024), 2);
    let applied = Arc::new(AtomicUsize::new(0));
    let aborted = Arc::new(AtomicUsize::new(0));
    // Op 40 escapes the granted 10.13.0.0/16 flow space.
    let mut ops: Vec<FlowOp> = (0..BATCH).map(|i| op(1, i as u8, 80 + i as u16)).collect();
    ops[40].flow_mod.flow_match.ip_dst = Some(MaskedIpv4::prefix(Ipv4::new(172, 31, 0, 0), 16));
    c.register(
        Box::new(BatchApp {
            ops,
            applied: Arc::clone(&applied),
            aborted: Arc::clone(&aborted),
        }),
        &parse_manifest("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0").unwrap(),
    )
    .unwrap();
    assert_eq!(applied.load(Ordering::SeqCst), 0);
    assert_eq!(aborted.load(Ordering::SeqCst), 41, "failed_index == 40");
    assert_eq!(
        c.kernel().flow_count(DatapathId(1)),
        0,
        "denial mid-batch must apply nothing"
    );
    let audit = c.kernel().audit_records_since(0);
    assert!(audit
        .iter()
        .any(|r| r.operation == "batch" && r.outcome == AuditOutcome::Denied));
    c.shutdown();
}

#[test]
fn switch_error_rolls_back_applied_prefix() {
    let kernel = Kernel::new(Network::new(builders::linear(2), 1024), true);
    let app = AppId(1);
    kernel
        .register_app(app, "batcher", &parse_manifest("PERM insert_flow").unwrap())
        .unwrap();
    // Middle op targets a switch that does not exist: the two already-applied
    // ops must be rolled back.
    let ops = vec![op(1, 1, 81), op(2, 2, 82), op(99, 3, 83), op(1, 4, 84)];
    let (result, events) = kernel.execute_batch(app, &ops);
    match result {
        Err(ApiError::TransactionAborted { failed_index, .. }) => assert_eq!(failed_index, 2),
        other => panic!("expected abort, got {other:?}"),
    }
    assert!(events.is_empty());
    assert_eq!(kernel.flow_count(DatapathId(1)), 0);
    assert_eq!(kernel.flow_count(DatapathId(2)), 0);
}

#[test]
fn context_epoch_advances_with_tracker_mutations() {
    let kernel = Kernel::new(Network::new(builders::linear(2), 1024), true);
    let app = AppId(1);
    kernel
        .register_app(app, "batcher", &parse_manifest("PERM insert_flow").unwrap())
        .unwrap();
    let e0 = kernel.context_epoch();
    let (result, _) = kernel.execute_batch(app, &[op(1, 1, 81), op(1, 2, 82)]);
    result.unwrap();
    let e1 = kernel.context_epoch();
    assert_ne!(e0, e1, "recorded flow-mods must advance the epoch");
    // A pure read leaves the epoch alone.
    let _ = kernel.flow_count(DatapathId(1));
    assert_eq!(kernel.context_epoch(), e1);
}
