"""Pinned digests of localization's, segmentation's, face's, tracking's
and sift's outputs, and of tracking's and sift's kernel work.

The digests were recorded on the code before the ray march, the
tridiagonal QL, face training, the KLT level solve and the SIFT
descriptor were rewritten for speed; each rewrite must leave every
output bit-identical, so the digests must not change.  A digest covers
the app's canonical outputs: keys sorted, arrays as float64 bytes (with
their shape), scalars by ``repr``.  ``WORK`` pins the flops and bytes
the dispatcher's work models record per registered kernel in one run,
which the batched rewrites must also leave unchanged.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_app_digests.py
"""

import hashlib

import numpy as np
import pytest

from repro.core import InputSize, get_benchmark, run_benchmark
from repro.face import benchmark as face_bench
from repro.face import detect_faces, detection_hit_rate
from repro.localization import benchmark as loc_bench
from repro.localization import localize, position_error
from repro.segmentation import benchmark as seg_bench
from repro.segmentation import label_purity, segment_image
from repro.sift import benchmark as sift_bench
from repro.sift import extract_features
from repro.tracking import benchmark as track_bench
from repro.tracking import track_sequence

CELLS = [("SQCIF", v) for v in range(5)] + [("CIF", 0)]


def canonical_digest(outputs):
    """sha256 over sorted keys, float64 array bytes and scalar reprs."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode() + b"\0")
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value, dtype=np.float64)
            h.update(repr(arr.shape).encode() + b"\0")
            h.update(arr.tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"\0")
    return h.hexdigest()


def localization_outputs(size, variant):
    """The pose traces and scores the localization app computes."""
    world, seed = loc_bench.setup(InputSize[size], variant)
    outputs = {"steps": 0}
    for mode in ("global", "tracking"):
        est = localize(world, seed=seed, mode=mode)
        outputs[f"{mode}_poses"] = np.array(est)
        outputs[f"{mode}_error"] = position_error(est, world.true_poses)
        outputs["steps"] = len(est)
    return outputs


def segmentation_outputs(size, variant):
    """Labels, embedding and purity of the segmentation app."""
    image, truth = seg_bench.setup(InputSize[size], variant)
    result = segment_image(image, n_segments=seg_bench.N_SEGMENTS,
                           radius=seg_bench.RADIUS,
                           max_nodes=seg_bench.MAX_NODES)
    return {
        "labels": result.labels,
        "grid_labels": result.grid_labels,
        "eigenvectors": result.eigenvectors,
        "n_segments": result.n_segments,
        "purity": label_purity(result.labels, truth),
    }


def face_outputs(size, variant):
    """Boxes, scores and hit rate of the trained cascade's detections."""
    cascade, scene = face_bench.setup(InputSize[size], variant)
    detections = detect_faces(cascade, scene.image)
    return {
        "boxes": np.array([(d.row, d.col, d.side) for d in detections],
                          dtype=np.float64).reshape(-1, 3),
        "scores": np.array([d.score for d in detections]),
        "true_faces": len(scene.true_boxes),
        "hit_rate": detection_hit_rate(detections, scene.true_boxes),
    }


def tracking_outputs(size, variant):
    """Every track's start, end, convergence and residual."""
    seq = track_bench.setup(InputSize[size], variant)
    pairs = track_sequence(seq.frames, max_features=track_bench.MAX_FEATURES,
                           levels=track_bench.PYRAMID_LEVELS)
    tracks = [t for pair in pairs for t in pair]
    return {
        "per_pair": tuple(len(pair) for pair in pairs),
        "start": np.array([t.start for t in tracks]).reshape(-1, 2),
        "end": np.array([t.end for t in tracks]).reshape(-1, 2),
        "converged": np.array([t.converged for t in tracks]),
        "residual": np.array([t.residual for t in tracks]),
    }


def _keypoint_fields(kp):
    return (kp.row, kp.col, kp.octave, kp.scale_index, kp.sigma,
            kp.response, kp.orientation)


def sift_outputs(size, variant):
    """Every keypoint's fields, every feature's orientation and bytes."""
    scene = sift_bench.setup(InputSize[size], variant)
    result = extract_features(scene, n_octaves=sift_bench.N_OCTAVES,
                              scales_per_octave=sift_bench.SCALES_PER_OCTAVE)
    return {
        "keypoints": np.array([_keypoint_fields(kp)
                               for kp in result.keypoints]).reshape(-1, 7),
        "features": np.array([_keypoint_fields(f.keypoint)
                              for f in result.features]).reshape(-1, 7),
        "descriptors": np.array([f.descriptor for f in result.features]
                                ).reshape(-1, 128),
    }


APPS = {"face": face_outputs,
        "localization": localization_outputs,
        "segmentation": segmentation_outputs,
        "sift": sift_outputs,
        "tracking": tracking_outputs}

DIGESTS = {
    ("face", "SQCIF", 0):
        "0c23b209705daa391550ec3bef46b6ecb2a89e981d3eb79476950cf693d487d2",
    ("face", "SQCIF", 1):
        "e720c4e0f4c549abb7ccbca75e81e8e56b44f97e2cb5245c24e7036cf8a65df6",
    ("face", "SQCIF", 2):
        "8256e0aa6b77afcf5fe0d86d2c3bc1ab1f0b951148c38df930a7021627cfc07c",
    ("face", "SQCIF", 3):
        "a2a0c23d9905ff7bc12f392ec52489e63d8a0f8752133de2f65d251f70acab3a",
    ("face", "SQCIF", 4):
        "beacce651316382993a7ef1298164704d5079db38eee8df0c49c306872cd7bb7",
    ("face", "CIF", 0):
        "c084aa144ae5f7bb44668f04a41dd12318f1f93e6b70dbec7c3d0dda6dd39d9d",
    ("localization", "SQCIF", 0):
        "e0d361a955e84e4cd19ce0c1369dc7cf3db57ac3a06ea57052fc6fac1dcf0751",
    ("localization", "SQCIF", 1):
        "56d414073d3ecedfb66f6a140ccacf2387cddf7707b74cb39b50c17bbd75607a",
    ("localization", "SQCIF", 2):
        "ec9f5004b3dbbbe3db72fd14eaff7ea29b420d6d1d81ab6800aa9726d58e7d9a",
    ("localization", "SQCIF", 3):
        "2f989f4b4c124559da3657c020680657a43bc7d501e25a4c05b2e0ddbbd39728",
    ("localization", "SQCIF", 4):
        "205ce5e1969d9ef5aecce04b7ec770e80fa546032022e4f920b3c9b750f19b4e",
    ("localization", "CIF", 0):
        "3a0ee725e8bd5d21b0c555870ada8f9b12f8b0ffef21fb8423bfdfad9fc83e48",
    ("segmentation", "SQCIF", 0):
        "17b811f81c4ad68733d8151974b2e063c61eacf06ab5c079300d08fd9f5db830",
    ("segmentation", "SQCIF", 1):
        "f1ad3fd5e91282349e2298720e0ffe975e806de7ed59dccb8b473400d80d2258",
    ("segmentation", "SQCIF", 2):
        "3a8fbb8163ddb630fcb705cdafe7b7749cf56f6d4dd4972bf0946b6ebcd993e2",
    ("segmentation", "SQCIF", 3):
        "191611b0e067c303b5208542868bc97e0867cac2282174e429a19dc0d5fb512c",
    ("segmentation", "SQCIF", 4):
        "27e5169b42f3f0d06e1ef59063167fd430b0c060ed05ce91436e344f75991cd2",
    ("segmentation", "CIF", 0):
        "bd50c1270ca09b131480be918dde8413a9f5b82994d1d4a682353234b7726040",
    ("sift", "SQCIF", 0):
        "dbc5797aa35b1008d52f977b588dafc3345ccb7958ba7e577c8c1a927ef4bd1e",
    ("sift", "SQCIF", 1):
        "60863d04750f37a1adf0820ec0d7a2f3dfb5a112d9ff0f4eadd724f7e91d7a56",
    ("sift", "SQCIF", 2):
        "22049750c69672cf3ca4f8660f59b72bd509628f210ae1ddc1ac1e74a20d2374",
    ("sift", "SQCIF", 3):
        "5f191903e5ef6beb49f197de5c3535ea808ca630b72751bcb1c094938b89d80c",
    ("sift", "SQCIF", 4):
        "0453e55628a0a169ac4e0b740eeb3eaaa49d880987170d5e6cdfbd4d92eedd7f",
    ("sift", "CIF", 0):
        "e9211a11eda2dc171bd6d4e744b34efc3a1d86c186eb3b331eb16f27daab8ef0",
    ("tracking", "SQCIF", 0):
        "52fa71ffe590667774402af9abc912554c90bc4e13234ddcba6cdf3990d32398",
    ("tracking", "SQCIF", 1):
        "7a0cd23d7206674a8a0b0a2e83cf6d8b0f2b0db179c12265a310e7691dca13e7",
    ("tracking", "SQCIF", 2):
        "4942d428d791bd822065402f0c964ce5a776581153d403a91cd19e135188e4ba",
    ("tracking", "SQCIF", 3):
        "552a7b4929ee6ebba39144a110c595e38fd751c43097c1e964c9827b0e07c5e6",
    ("tracking", "SQCIF", 4):
        "b3aeb15c70f7d5e80b170297dc8fee6525c3e897ca6e29aa7f5c23fa7c6ba4c6",
    ("tracking", "CIF", 0):
        "aa14d2fb4bd8636524c8fa13e011653bd29f71c9b35d32410d279ce0e31489da",
}


def kernel_work(app, size, variant):
    """``{kernel: (flops, bytes)}`` from one run's ``metrics.kernels``."""
    run = run_benchmark(get_benchmark(app), InputSize[size], variant)
    return {name: (int(block["flops"]), int(block["bytes"]))
            for name, block in sorted(run.metrics["kernels"].items())}


WORK_APPS = ("sift", "tracking")
WORK_CELLS = CELLS[:5]

WORK = {
    ("sift", "SQCIF", 0): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (2773248, 4340736),
    },
    ("sift", "SQCIF", 1): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3597568, 5630976),
    },
    ("sift", "SQCIF", 2): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3685888, 5769216),
    },
    ("sift", "SQCIF", 3): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3150080, 4930560),
    },
    ("sift", "SQCIF", 4): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3061760, 4792320),
    },
    ("tracking", "SQCIF", 0): {
        "imgproc.bilinear": (2350944, 8228304),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 1): {
        "imgproc.bilinear": (2450736, 8577576),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 2): {
        "imgproc.bilinear": (2379456, 8328096),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 3): {
        "imgproc.bilinear": (2477952, 8672832),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 4): {
        "imgproc.bilinear": (2459808, 8609328),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
}


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("size,variant", CELLS)
def test_output_digest_pinned(app, size, variant):
    digest = canonical_digest(APPS[app](size, variant))
    assert digest == DIGESTS[(app, size, variant)]


@pytest.mark.parametrize("app", WORK_APPS)
@pytest.mark.parametrize("size,variant", WORK_CELLS)
def test_kernel_work_pinned(app, size, variant):
    assert kernel_work(app, size, variant) == WORK[(app, size, variant)]


if __name__ == "__main__":
    for app in sorted(APPS):
        for size, variant in CELLS:
            digest = canonical_digest(APPS[app](size, variant))
            print(f'    ("{app}", "{size}", {variant}):\n        "{digest}",')
    for app in WORK_APPS:
        for size, variant in WORK_CELLS:
            work = kernel_work(app, size, variant)
            print(f'    ("{app}", "{size}", {variant}): {work!r},')
