//! Trained-model cache ("model zoo").
//!
//! Training five U-Nets on CPU is the slow part of reproducing the paper;
//! the zoo caches the trained graphs on disk (JSON via serde) keyed by model
//! size and the configuration fingerprint, so benches and the `reproduce`
//! harness can share one training run.

use crate::config::SenecaConfig;
use crate::workflow::{PreparedData, Workflow};
use seneca_nn::graph::Graph;
use seneca_nn::unet::ModelSize;
use std::path::{Path, PathBuf};

/// Where artifacts live: `$SENECA_ARTIFACTS` or `target/seneca-artifacts`.
pub fn artifacts_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SENECA_ARTIFACTS") {
        return PathBuf::from(dir);
    }
    PathBuf::from("target/seneca-artifacts")
}

/// Version of everything *code* that shapes trained weights without showing
/// up in the configuration: the label and preprocessing pipeline, and the
/// arithmetic of training itself. Bump it with such a change, and every
/// cached model is retrained instead of silently reused. 2: FP32 GEMMs (all
/// of training) accumulate with fused multiply-add. 3: the cache holds the
/// trained `Graph` (same weights, new file format). 4: the trained `Graph`
/// is stored as its FP32 `seneca_ir::Module` (same weights, new file format).
/// 5: conv and tconv backward run as implicit GEMMs on the strip driver (new
/// FMA sum orders), and the epoch budget no longer draws from the training
/// RNG.
const PIPELINE_VERSION: u32 = 5;

/// A stable fingerprint of everything that affects trained weights: every
/// configuration field training reads, salted with the pipeline version (the
/// leading `v<N>`). Floats print in their shortest exact form, so any change
/// of one changes the name.
pub fn config_fingerprint(cfg: &SenecaConfig) -> String {
    let c = &cfg.cohort;
    let t = &cfg.train;
    format!(
        "v{PIPELINE_VERSION}p{}s{}z{}i{}ts{}e{}b{}lr{}d{}sd{:x}-{:x}{}",
        c.n_patients,
        c.slice_size,
        c.slices_per_unit_z,
        cfg.input_size,
        cfg.train_stride,
        t.epochs,
        t.batch_size,
        cfg.learning_rate,
        t.lr_decay,
        cfg.seed,
        t.seed,
        // Suffix only when augmentation is on (it draws from the training
        // RNG stream; off leaves that stream untouched).
        if t.augment { "-aug" } else { "" },
    )
}

/// Cache path for one trained model.
pub fn model_path(cfg: &SenecaConfig, size: ModelSize) -> PathBuf {
    artifacts_dir().join(format!("unet-{}-{}.json", size.label(), config_fingerprint(cfg)))
}

/// Loads a cached model of `size` if present; a file holding a model of
/// another size reads as absent.
pub fn load_model(path: &Path, size: ModelSize) -> Option<Graph> {
    let bytes = std::fs::read(path).ok()?;
    let graph: Graph = serde_json::from_slice(&bytes).ok()?;
    (graph.module().name == size.label()).then_some(graph)
}

/// Saves a trained model (best effort; failures only warn).
pub fn save_model(path: &Path, graph: &Graph) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match serde_json::to_vec(graph) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(path, bytes) {
                eprintln!("zoo: could not cache model at {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("zoo: serialisation failed: {e}"),
    }
}

/// Returns the trained model for `size`, training (and caching) on a miss.
pub fn get_or_train(wf: &Workflow, size: ModelSize, data: &PreparedData) -> Graph {
    let path = model_path(&wf.config, size);
    if let Some(graph) = load_model(&path, size) {
        return graph;
    }
    let graph = wf.train_model(size, data);
    save_model(&path, &graph);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SenecaConfig;

    #[test]
    fn fingerprint_changes_with_config() {
        let a = SenecaConfig::fast();
        let mut b = SenecaConfig::fast();
        b.train.epochs += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&SenecaConfig::fast()));
        // Every field that shapes trained weights, changed alone; floats by
        // less than a truncating encoding would resolve.
        type Edit = fn(&mut SenecaConfig);
        let edits: [(&str, Edit); 12] = [
            ("n_patients", |c| c.cohort.n_patients += 1),
            ("slice_size", |c| c.cohort.slice_size *= 2),
            ("slices_per_unit_z", |c| c.cohort.slices_per_unit_z += 0.5),
            ("input_size", |c| c.input_size *= 2),
            ("train_stride", |c| c.train_stride += 1),
            ("epochs", |c| c.train.epochs += 1),
            ("batch_size", |c| c.train.batch_size += 1),
            ("learning_rate", |c| c.learning_rate += 1e-7),
            ("seed", |c| c.seed += 1),
            ("train.seed", |c| c.train.seed += 1),
            ("lr_decay", |c| c.train.lr_decay = 0.93),
            ("augment", |c| c.train.augment = !c.train.augment),
        ];
        for (field, edit) in edits {
            let mut b = SenecaConfig::fast();
            edit(&mut b);
            assert_ne!(config_fingerprint(&a), config_fingerprint(&b), "{field}");
        }
        assert!(config_fingerprint(&a).starts_with(&format!("v{PIPELINE_VERSION}p")));
    }

    #[test]
    fn save_load_roundtrip_rejects_another_size() {
        use rand::SeedableRng;
        let dir = std::env::temp_dir().join(format!("seneca-zoo-test-{}", std::process::id()));
        let path = dir.join("m.json");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = seneca_nn::UNet::from_size(ModelSize::M1, &mut rng);
        let graph = Graph::from_unet(&net, ModelSize::M1.label());
        save_model(&path, &graph);
        let loaded = load_model(&path, ModelSize::M1).expect("model loads");
        let json = |g: &Graph| serde_json::to_string(g).unwrap();
        assert_eq!(json(&loaded), json(&graph));
        assert!(load_model(&path, ModelSize::M2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_none() {
        assert!(load_model(Path::new("/nonexistent/seneca/model.json"), ModelSize::M1).is_none());
    }

    #[test]
    fn get_or_train_caches() {
        let dir = std::env::temp_dir().join(format!("seneca-zoo-cache-{}", std::process::id()));
        std::env::set_var("SENECA_ARTIFACTS", &dir);
        let wf = crate::Workflow::new(SenecaConfig::fast());
        let data = wf.prepare_data();
        let t0 = std::time::Instant::now();
        let a = get_or_train(&wf, ModelSize::M1, &data);
        let first = t0.elapsed();
        let t1 = std::time::Instant::now();
        let b = get_or_train(&wf, ModelSize::M1, &data);
        let second = t1.elapsed();
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        assert!(second < first, "cache hit must be faster: {second:?} vs {first:?}");
        std::env::remove_var("SENECA_ARTIFACTS");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
