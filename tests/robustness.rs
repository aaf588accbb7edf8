//! Robustness regressions: decode-limit enforcement (allocation-abort
//! class of bugs), weight-truncation consistency, and inspect/decompress
//! agreement.

use ds_core::{compress, decompress, inspect, DsArchive, DsConfig};
use ds_table::gen::Dataset;

/// A corrupt RLE stream claiming 2^60 elements must error, not abort the
/// process (regression for the allocation-abort found by proptests).
#[test]
fn absurd_rle_claims_are_rejected() {
    use ds_codec::{rle, ByteWriter};
    let mut w = ByteWriter::new();
    w.write_varint(1u64 << 60); // claimed element count
    w.write_varint(7); // value
    w.write_varint(1u64 << 60); // one gigantic run
    let err = rle::decode(w.as_slice()).unwrap_err();
    assert!(matches!(err, ds_codec::CodecError::Corrupt(_)));
}

#[test]
fn absurd_gzlike_lengths_are_rejected_cheaply() {
    use ds_codec::{gzlike, ByteWriter};
    // Header claiming an enormous raw length followed by garbage: must
    // return an error without attempting the allocation.
    let mut w = ByteWriter::new();
    w.write_varint(1u64 << 62);
    w.write_bytes(&[0u8; 64]);
    assert!(gzlike::decompress(w.as_slice()).is_err());
}

/// bf16 weight truncation must leave compressor and decompressor
/// bit-identical: decompressing must reproduce exactly what the
/// materializer predicted (no drift in failure patching).
#[test]
fn weight_truncation_is_roundtrip_consistent() {
    let t = Dataset::Monitor.generate(600, 91);
    for bits in [0u32, 8, 16] {
        let cfg = DsConfig {
            error_threshold: 0.10,
            max_epochs: 6,
            weight_truncate_bits: bits,
            ..Default::default()
        };
        let archive = compress(&t, &cfg).expect("compresses");
        let restored = decompress(&archive).expect("decodes");
        // The error contract must hold regardless of truncation level.
        for (a, b) in t.columns().iter().zip(restored.columns()) {
            let (x, y) = (a.as_num().unwrap(), b.as_num().unwrap());
            let min = x.iter().copied().fold(f64::INFINITY, f64::min);
            let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = 0.10 * (max - min) * (1.0 + 1e-7) + 1e-9;
            for (u, v) in x.iter().zip(y) {
                assert!((u - v).abs() <= bound, "bits={bits}");
            }
        }
    }
}

#[test]
fn truncation_shrinks_the_decoder() {
    let t = Dataset::Census.generate(800, 93);
    let size_with = |bits: u32| {
        compress(
            &t,
            &DsConfig {
                max_epochs: 4,
                weight_truncate_bits: bits,
                ..Default::default()
            },
        )
        .expect("compresses")
        .breakdown()
        .decoder
    };
    let full = size_with(0);
    let bf16 = size_with(16);
    assert!(
        bf16 * 3 < full * 2,
        "bf16 decoder {bf16} should be well under f32 decoder {full}"
    );
}

#[test]
fn inspect_agrees_with_decompression_on_every_dataset() {
    for d in Dataset::ALL {
        let error = if d.supports_lossy() { 0.05 } else { 0.0 };
        let t = d.generate(250, 97);
        let cfg = DsConfig {
            error_threshold: error,
            max_epochs: 3,
            n_experts: 2,
            ..Default::default()
        };
        let archive = compress(&t, &cfg).expect("compresses");
        let info = inspect(&archive).expect("inspects");
        let restored = decompress(&archive).expect("decodes");
        assert_eq!(info.nrows, restored.nrows(), "{}", d.name());
        assert_eq!(info.columns.len(), restored.ncols(), "{}", d.name());
        for ((name, _), field) in info.columns.iter().zip(restored.schema().fields()) {
            assert_eq!(name, &field.name);
        }
    }
}

#[test]
fn archives_reject_version_skew() {
    let t = Dataset::Corel.generate(100, 99);
    let cfg = DsConfig {
        error_threshold: 0.1,
        max_epochs: 2,
        ..Default::default()
    };
    let mut bytes = compress(&t, &cfg).expect("compresses").as_bytes().to_vec();
    bytes[4] = 99; // version byte
    assert!(decompress(&DsArchive::from_bytes(bytes.clone())).is_err());
    assert!(inspect(&DsArchive::from_bytes(bytes)).is_err());
}

/// Rewrites a shard's column plans in place.
type PlanForgery = fn(&mut [ds_core::preprocess::ColPlan]);

/// Rewrites the column plans of shard 0 of a v2 container and rebuilds
/// the container around it (fresh CRC and manifest), so the forged shard
/// reaches the decoder.
fn forge_shard0_plans(bytes: &[u8], forge: PlanForgery) -> Vec<u8> {
    use ds_codec::{ByteReader, ByteWriter};
    use ds_core::preprocess::ColPlan;

    let reader = ds_shard::ShardReader::open(bytes).expect("opens");
    let mut writer = ds_shard::ShardWriter::new(Vec::new());
    writer.set_shared(reader.shared().to_vec());
    for (i, entry) in reader.entries().iter().enumerate() {
        let blob = reader.shard_bytes(i).expect("shard bytes");
        if i > 0 {
            writer.push_shard(entry.rows.len(), blob).expect("push");
            continue;
        }
        // Shard header: magic, version, rows, columns, then per column
        // its name and plan; the rest of the blob is kept verbatim.
        let mut r = ByteReader::new(blob);
        let head = r.read_bytes(5).expect("magic + version").to_vec();
        let n = r.read_varint().expect("rows");
        let ncols = r.read_varint().expect("cols") as usize;
        let mut names = Vec::new();
        let mut plans = Vec::new();
        for _ in 0..ncols {
            names.push(r.read_len_prefixed().expect("name").to_vec());
            plans.push(ColPlan::read_from(&mut r).expect("plan"));
        }
        forge(&mut plans);
        let mut w = ByteWriter::new();
        w.write_bytes(&head);
        w.write_varint(n);
        w.write_varint(ncols as u64);
        for (name, plan) in names.iter().zip(&plans) {
            w.write_len_prefixed(name);
            plan.write_to(&mut w);
        }
        w.write_bytes(&blob[r.position()..]);
        writer
            .push_shard(entry.rows.len(), w.as_slice())
            .expect("push");
    }
    writer.finish().expect("finish").0
}

/// A shard whose column plans disagree with the shared decoder's heads
/// (an extra categorical head, or a cardinality wider than the head's)
/// is rejected as corrupt by every decode entry point, before any
/// prediction is indexed.
#[test]
fn plans_that_disagree_with_the_decoder_heads_are_rejected() {
    use ds_core::preprocess::ColPlan;
    use ds_core::DsError;

    let t = ds_table::gen::census_like(120, 4);
    let cfg = DsConfig {
        error_threshold: 0.0,
        max_epochs: 2,
        shard_rows: 40,
        ..Default::default()
    };
    let bytes = compress(&t, &cfg).expect("compresses").as_bytes().to_vec();
    assert!(decompress(&DsArchive::from_bytes(bytes.clone())).is_ok());

    fn is_corrupt(e: &DsError) -> bool {
        match e {
            DsError::Corrupt(_) => true,
            DsError::ShardFailed { source, .. } => is_corrupt(source),
            _ => false,
        }
    }

    fn widest_cat_one_wider(plans: &mut [ColPlan]) {
        let card = plans
            .iter_mut()
            .filter_map(|p| match p {
                ColPlan::Cat { model_card, .. } => Some(model_card),
                _ => None,
            })
            .max_by_key(|c| **c)
            .expect("census has categorical plans");
        *card += 1;
    }
    fn last_binary_as_cat(plans: &mut [ColPlan]) {
        let i = plans
            .iter()
            .rposition(|p| matches!(p, ColPlan::Binary { .. }))
            .expect("census has binary plans");
        let ColPlan::Binary { dict } = plans[i].clone() else {
            unreachable!()
        };
        plans[i] = ColPlan::Cat {
            dict,
            model_card: 2,
            class_to_code: vec![0, 1],
        };
    }
    let forgeries: [(&str, PlanForgery); 2] = [
        ("model_card wider than its head", widest_cat_one_wider),
        ("more categorical plans than heads", last_binary_as_cat),
    ];
    for (what, forge) in forgeries {
        let forged = forge_shard0_plans(&bytes, forge);
        let err = decompress(&DsArchive::from_bytes(forged.clone()))
            .expect_err(&format!("{what}: decompress accepted the forged shard"));
        assert!(is_corrupt(&err), "{what}: decompress: {err}");

        let archive = ds_serve::Archive::open(forged).expect("container is intact");
        match archive.read_rows(0..10) {
            Err(ds_serve::ServeError::Core(e)) if is_corrupt(&e) => {}
            other => panic!("{what}: read_rows: {other:?}"),
        }
        // Shards other than the forged one still serve.
        assert!(archive.read_rows(40..50).is_ok(), "{what}");
    }
}
