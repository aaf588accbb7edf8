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

/// Rewrites a container's column plans in place.
type PlanForgery = fn(&mut [ds_core::preprocess::ColPlan]);

/// Rewrites the column plans in a v2 container's column-plan section and
/// rebuilds the container around it (fresh manifest, shards and decoder
/// verbatim), so the forged plans reach the decoder.
fn forge_shared_plans(bytes: &[u8], forge: PlanForgery) -> Vec<u8> {
    use ds_core::archive::ColumnPlans;

    let reader = ds_shard::ShardReader::open(bytes).expect("opens");
    let section = reader.column_plans().expect("plans are stored once");
    let mut plans = ColumnPlans::from_section(section).expect("section parses");
    forge(&mut plans.plans);
    let mut writer = ds_shard::ShardWriter::new(Vec::new());
    writer.set_shared(reader.shared().to_vec());
    writer.set_column_plans(plans.to_section());
    for (i, entry) in reader.entries().iter().enumerate() {
        let blob = reader.shard_bytes(i).expect("shard bytes");
        writer.push_shard(entry.rows.len(), blob).expect("push");
    }
    writer.finish().expect("finish").0
}

/// Column plans that disagree with the shared decoder's heads (an extra
/// categorical head, or a cardinality wider than the head's) are rejected
/// as corrupt by every decode entry point when the container is opened,
/// before any prediction is indexed.
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
    // Rebuilding with unchanged plans reproduces the container exactly,
    // so each rejection below is attributable to its forgery alone.
    assert_eq!(forge_shared_plans(&bytes, |_| {}), bytes);
    let dir = std::env::temp_dir().join(format!("ds_forged_plans_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (what, forge) in forgeries {
        let forged = forge_shared_plans(&bytes, forge);
        let archive = DsArchive::from_bytes(forged.clone());
        let err = decompress(&archive)
            .expect_err(&format!("{what}: decompress accepted the forged plans"));
        assert!(is_corrupt(&err), "{what}: decompress: {err}");
        let err = ds_core::decompress_rows(&archive, 50..60).expect_err(&format!(
            "{what}: decompress_rows accepted the forged plans"
        ));
        assert!(is_corrupt(&err), "{what}: decompress_rows: {err}");

        match ds_serve::Archive::open(forged.clone()) {
            Err(ds_serve::ServeError::Core(e)) if is_corrupt(&e) => {}
            Err(other) => panic!("{what}: Archive::open: wrong error {other:?}"),
            Ok(_) => panic!("{what}: Archive::open accepted the forged plans"),
        }

        let path = dir.join("forged.dsqz");
        std::fs::write(&path, &forged).expect("write forged archive");
        match ds_core::open_source(&path, 40) {
            Err(e) if is_corrupt(&e) => {}
            Err(e) => panic!("{what}: open_source: wrong error {e:?}"),
            Ok(_) => panic!("{what}: open_source accepted the forged plans"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
