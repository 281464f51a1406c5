"""Data-type plug-ins demonstrated in the paper (section 5): image,
audio, 3D shape and genomic microarray data, each with a synthetic
benchmark generator standing in for the paper's datasets."""

from typing import Optional, Tuple

from ..core.engine import SimilaritySearchEngine
from ..core.filtering import FilterParams
from ..core.sketch import SketchParams
from ..core.types import meta_from_dataset

__all__ = ["build_demo_engine", "DEFAULT_SKETCH_BITS"]

# Table 1's sketch sizes per data type.
DEFAULT_SKETCH_BITS = {
    "image": 96,
    "audio": 600,
    "shape": 800,
    "genomic": 256,
    "sensor": 192,
    "video": 128,
}


def build_demo_engine(
    datatype: str,
    size: int = 200,
    sketch_bits: Optional[int] = None,
    seed: int = 42,
) -> Tuple[SimilaritySearchEngine, object]:
    """Build a ready-to-query engine over a synthetic benchmark.

    Returns ``(engine, benchmark)`` where the benchmark carries the
    dataset and gold-standard suite.  ``size`` scales the dataset
    (meaning varies slightly per data type).  This is the entry point
    the CLI tools and web demo use.
    """
    bits = sketch_bits or DEFAULT_SKETCH_BITS.get(datatype, 128)
    if datatype == "image":
        from .image import generate_image_benchmark, make_image_plugin

        bench = generate_image_benchmark(
            num_sets=max(4, size // 25), set_size=5,
            num_distractors=max(0, size - (size // 25) * 5), seed=seed,
        )
        plugin = make_image_plugin()
    elif datatype == "audio":
        from .audio import generate_audio_benchmark, make_audio_plugin

        bench = generate_audio_benchmark(
            num_sentences=max(4, size // 7), speakers_per_sentence=7, seed=seed
        )
        plugin = make_audio_plugin(meta_from_dataset(bench.dataset))
    elif datatype == "shape":
        from .shape import generate_shape_benchmark, make_shape_plugin

        bench = generate_shape_benchmark(
            instances_per_class=max(2, size // 15), seed=seed
        )
        plugin = make_shape_plugin(meta_from_dataset(bench.dataset))
    elif datatype == "sensor":
        from .sensor import generate_sensor_benchmark, make_sensor_plugin

        bench = generate_sensor_benchmark(
            num_sequences=max(4, size // 8), subjects_per_sequence=5, seed=seed
        )
        plugin = make_sensor_plugin(meta_from_dataset(bench.dataset))
    elif datatype == "video":
        from .video import generate_video_benchmark, make_video_plugin

        bench = generate_video_benchmark(
            num_videos=max(3, size // 12), renditions_per_video=4,
            num_distractors=max(0, size // 4), seed=seed,
        )
        plugin = make_video_plugin(meta_from_dataset(bench.dataset))
    elif datatype == "genomic":
        from .genomic import generate_genomic_benchmark, make_genomic_plugin

        bench = generate_genomic_benchmark(
            num_modules=max(4, size // 12), num_background=size, seed=seed
        )
        plugin = make_genomic_plugin(
            bench.expression.num_experiments,
            meta=meta_from_dataset(bench.dataset),
        )
    else:
        raise KeyError(f"unknown data type {datatype!r}")

    engine = SimilaritySearchEngine(
        plugin,
        SketchParams(bits, plugin.meta, seed=seed),
        FilterParams(),
    )
    engine.insert_many(list(bench.dataset))
    return engine, bench
