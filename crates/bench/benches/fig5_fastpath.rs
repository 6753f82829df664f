//! Criterion bench for the permission-check path (DESIGN.md §5): the
//! interpreted AST (the differential oracle) against the compiled check
//! plan on the paper's uniform trace, plus batched vs singleton flow-mod
//! submission at the kernel boundary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use sdnshield_bench::fig5::{gen_manifest, gen_trace, Complexity, TraceCall, GRANTED_NET};
use sdnshield_controller::api::FlowOp;
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::engine::PermissionEngine;
use sdnshield_core::eval::NullContext;
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, Ipv4, PortNo, Priority};

const BATCH: usize = 64;

fn bench_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_fastpath");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));

    // Both check paths on the uniform trace, across manifest complexity.
    for complexity in Complexity::ALL {
        let engine = PermissionEngine::compile(&gen_manifest(complexity, 42));
        let trace = gen_trace(TraceCall::InsertFlow, 4096, 50, 7);
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("uniform/interpreted", complexity.label()),
            &trace,
            |b, t| {
                b.iter(|| {
                    t.iter()
                        .filter(|c| engine.check_interpreted(c, &NullContext).is_allowed())
                        .count()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("uniform/plan", complexity.label()),
            &trace,
            |b, t| {
                b.iter(|| {
                    t.iter()
                        .filter(|c| engine.check(c, &NullContext).is_allowed())
                        .count()
                })
            },
        );
    }
    group.finish();
}

/// Batched vs singleton flow-mod submission at the kernel boundary (the
/// deputy channel itself is exercised by `fig5_table`'s live-controller
/// section; here the kernel-level amortization — one engine fetch, one
/// tracker read guard, one audit record — is isolated).
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_fastpath_batch");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));

    let kernel = Kernel::new(Network::new(builders::linear(3), 1024), true);
    let app = AppId(1);
    kernel
        .register_app(
            app,
            "bencher",
            &parse_manifest("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0").unwrap(),
        )
        .unwrap();
    let mods: Vec<FlowMod> = (0..BATCH)
        .map(|i| {
            FlowMod::add(
                FlowMatch::default()
                    .with_ip_dst(Ipv4(GRANTED_NET.0 | (i as u32 + 1)))
                    .with_tp_dst(80),
                Priority(100),
                ActionList::output(PortNo(1)),
            )
        })
        .collect();
    let ops: Vec<FlowOp> = mods
        .iter()
        .map(|fm| FlowOp {
            dpid: DatapathId(1),
            flow_mod: fm.clone(),
        })
        .collect();

    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function(BenchmarkId::new("singleton_x64", BATCH), |b| {
        b.iter(|| {
            for fm in &mods {
                let call = ApiCall::new(
                    app,
                    ApiCallKind::InsertFlow {
                        dpid: DatapathId(1),
                        flow_mod: fm.clone(),
                    },
                );
                let (result, _events) = kernel.execute(&call);
                result.expect("insert allowed");
            }
        })
    });
    group.bench_function(BenchmarkId::new("execute_batch", BATCH), |b| {
        b.iter(|| {
            let (result, _events) = kernel.execute_batch(app, &ops);
            result.expect("batch allowed");
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tiers, bench_batch);
criterion_main!(benches);
