"""Pinned digests of localization's, segmentation's and face's outputs.

The digests were recorded on the code before the ray march, the
tridiagonal QL and face training were rewritten for speed; each rewrite
must leave every output bit-identical, so the digests must not change.  A digest covers
the app's canonical outputs: keys sorted, arrays as float64 bytes (with
their shape), scalars by ``repr``.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_app_digests.py
"""

import hashlib

import numpy as np
import pytest

from repro.core import InputSize
from repro.face import benchmark as face_bench
from repro.face import detect_faces, detection_hit_rate
from repro.localization import benchmark as loc_bench
from repro.localization import localize, position_error
from repro.segmentation import benchmark as seg_bench
from repro.segmentation import label_purity, segment_image

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


APPS = {"face": face_outputs,
        "localization": localization_outputs,
        "segmentation": segmentation_outputs}

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
}


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("size,variant", CELLS)
def test_output_digest_pinned(app, size, variant):
    digest = canonical_digest(APPS[app](size, variant))
    assert digest == DIGESTS[(app, size, variant)]


if __name__ == "__main__":
    for app in sorted(APPS):
        for size, variant in CELLS:
            digest = canonical_digest(APPS[app](size, variant))
            print(f'    ("{app}", "{size}", {variant}):\n        "{digest}",')
