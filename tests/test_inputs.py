"""Malformed inputs end in a typed error with exit code 2, never a traceback.

The fuzz cases start from small valid NLD1 datasets and NAM snapshots,
single- and multi-label. They cut a file at every length, replace one
byte, join a prefix of one file to a suffix of another of its format, or
insert a run of bytes, and feed the result to the loaders and to the CLI
``eval`` and ``export-q`` commands. A spliced file may declare a much
larger network than it holds; ``load_snapshot`` checks the parameter
count against the bytes before it builds anything, so loading one stays
under 1 MB of traced memory. Config text is fuzzed through
``load_config`` by truncation and byte replacement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noiseattn import (AttributeSpec, Dataset, Dense, ExperimentConfig, MultiHeadNetwork,
                       NAModel, Network, NoiseAttnError, OneHead, ReLU, load_config, load_dataset,
                       load_snapshot, save_dataset, save_snapshot)
from noiseattn.cli import main as cli_main
from peaks import traced_peak

FILES = ("single.nld", "multi.nld", "single.nam", "multi.nam")
# An mlp_small_batch-style config, short enough that every prefix is a case:
# integer, string, float, list, shape and architecture values.
CONFIG = ("seed = 5\n"
          "data.synthetic.kind = blobs\n"
          "noise.rho = 0.4\n"
          "arch.input_shape = 20\n"
          "arch.layers = dense:20:64,relu,dense:64:10\n"
          "opt.lr = 0.05\n"
          "recursion.epochs = 1\n").encode()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A directory with the four valid files of FILES; each snapshot fits
    the dataset of its kind."""
    out = tmp_path_factory.mktemp("artifacts")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 2))
    save_dataset(Dataset(x, [0, 1, 2, 0], 3, [0, 1, 2, 1]), out / "single.nld")
    save_dataset(Dataset(x, [[0, 1], [1, 2], [0, 0], [1, 1]], 3,
                         [[0, 1], [1, 2], [1, 0], [1, 1]]), out / "multi.nld")
    model = NAModel(3)
    model.add_unit(decay=0.002, jitter=0.1, rng=rng)
    save_snapshot(out / "single.nam", OneHead(Network([Dense(2, 3)], (2,), seed=0)), [model])
    attrs = AttributeSpec([2, 3], ["a", "b"])
    specs = [Dense(2, 4), ReLU()]
    save_snapshot(out / "multi.nam", MultiHeadNetwork(Network(specs, (2,), seed=0), attrs),
                  [NAModel(2), NAModel(3)])
    return out


def check_fuzzed(artifacts, name, blob, cli=True):
    """``blob`` in place of the file ``name`` loads to a valid object or
    raises a NoiseAttnError; with ``cli``, the CLI exits 0 or 2, and 2 when
    it does not load."""
    label, kind = name.split(".")
    path = artifacts / f"fuzzed.{kind}"
    path.write_bytes(blob)
    # Fuzzed parameters may overflow in the forward pass; numpy's
    # floating-point warnings are not what is under test here.
    with np.errstate(all="ignore"):
        try:
            (load_dataset if kind == "nld" else load_snapshot)(path)
            loaded = True
        except NoiseAttnError:
            loaded = False
        if not cli:
            return
        if kind == "nld":
            calls = [["eval", "--snapshot", str(artifacts / f"{label}.nam"), "--data", str(path)]]
        else:
            calls = [["eval", "--snapshot", str(path), "--data", str(artifacts / f"{label}.nld")],
                     ["export-q", "--snapshot", str(path), "--out", str(artifacts / "q")]]
        codes = [cli_main(argv) for argv in calls]
    assert set(codes) <= ({0, 2} if loaded else {2}), codes


@pytest.mark.parametrize("name", FILES)
def test_the_valid_files_load_and_run(artifacts, name):
    check_fuzzed(artifacts, name, (artifacts / name).read_bytes())
    assert cli_main(["eval", "--snapshot", str(artifacts / name.replace("nld", "nam")),
                     "--data", str(artifacts / name.replace("nam", "nld"))]) == 0


@pytest.mark.parametrize("name", FILES)
def test_every_truncation_is_a_typed_error(artifacts, name, capsys):
    """The loaders see every prefix; the CLI, which costs about 2 ms a call
    in argument parsing alone, every fourth one and the longest."""
    blob = (artifacts / name).read_bytes()
    for length in range(len(blob)):
        check_fuzzed(artifacts, name, blob[:length],
                     cli=length % 4 == 0 or length == len(blob) - 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", FILES)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(position=st.integers(min_value=0), change=st.integers(min_value=1, max_value=255))
def test_a_replaced_byte_loads_or_is_a_typed_error(artifacts, name, position, change):
    blob = bytearray((artifacts / name).read_bytes())
    position %= len(blob)
    blob[position] = (blob[position] + change) % 256
    check_fuzzed(artifacts, name, bytes(blob))


def load_peak(path) -> int:
    """The tracemalloc peak, in bytes, of loading the snapshot at ``path``."""
    def load():
        try:
            load_snapshot(path)
        except NoiseAttnError:
            pass

    return traced_peak(load)[1]


def check_spliced(artifacts, name, blob):
    """``check_fuzzed``, and for a snapshot a load that stays under 1 MB."""
    check_fuzzed(artifacts, name, blob)
    if name.endswith(".nam"):
        assert load_peak(artifacts / "fuzzed.nam") < 2**20


LABELS = st.sampled_from(["single", "multi"])


@pytest.mark.parametrize("kind", ["nld", "nam"])
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(first=LABELS, second=LABELS, cut=st.integers(min_value=0),
       resume=st.integers(min_value=0))
def test_a_spliced_file_loads_or_is_a_typed_error(artifacts, kind, first, second, cut, resume):
    head = (artifacts / f"{first}.{kind}").read_bytes()
    tail = (artifacts / f"{second}.{kind}").read_bytes()
    blob = head[:cut % (len(head) + 1)] + tail[resume % (len(tail) + 1):]
    check_spliced(artifacts, f"{first}.{kind}", blob)


@pytest.mark.parametrize("name", FILES)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(position=st.integers(min_value=0), run=st.binary(min_size=1, max_size=64))
def test_an_inserted_run_of_bytes_loads_or_is_a_typed_error(artifacts, name, position, run):
    blob = (artifacts / name).read_bytes()
    position %= len(blob) + 1
    check_spliced(artifacts, name, blob[:position] + run + blob[position:])


def check_config(directory, blob):
    """``blob`` as a config file builds an ExperimentConfig or raises a
    NoiseAttnError; any other exception fails the test."""
    path = directory / "fuzzed.cfg"
    path.write_bytes(blob)
    try:
        assert isinstance(load_config(path), ExperimentConfig)
    except NoiseAttnError:
        pass


def test_every_config_truncation_loads_or_is_a_typed_error(artifacts):
    (artifacts / "fuzzed.cfg").write_bytes(CONFIG)
    assert isinstance(load_config(artifacts / "fuzzed.cfg"), ExperimentConfig)
    for length in range(len(CONFIG)):
        check_config(artifacts, CONFIG[:length])


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(position=st.integers(min_value=0), change=st.integers(min_value=1, max_value=255))
def test_a_replaced_config_byte_loads_or_is_a_typed_error(artifacts, position, change):
    blob = bytearray(CONFIG)
    position %= len(blob)
    blob[position] = (blob[position] + change) % 256
    check_config(artifacts, bytes(blob))


def non_utf8_metadata(path):
    """The snapshot at ``path`` with one byte of its metadata made invalid UTF-8."""
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF
    return bytes(blob)


@pytest.mark.parametrize("call", [
    "eval --snapshot DIR --data single.nld",
    "eval --snapshot single.nam --data DIR",
    "inject --config inject.cfg --data DIR",
    "train --config DIR",
    "train --config latin1.cfg",
    "export-q --snapshot latin1.nam",
    "eval --snapshot single.nam --data empty.nld",
])
def test_bad_inputs_exit_2_with_a_typed_error(artifacts, call, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "single.nld").write_bytes((artifacts / "single.nld").read_bytes())
    (tmp_path / "single.nam").write_bytes((artifacts / "single.nam").read_bytes())
    (tmp_path / "latin1.nam").write_bytes(non_utf8_metadata(artifacts / "single.nam"))
    (tmp_path / "inject.cfg").write_text("out = inject\nnoise.mode = uniform\nnoise.rho = 0.2\n")
    (tmp_path / "latin1.cfg").write_bytes("# café\nseed = 1\n".encode("latin-1"))
    save_dataset(Dataset(np.zeros((0, 2)), np.zeros(0, int), 3, np.zeros(0, int)),
                 tmp_path / "empty.nld")
    assert cli_main(call.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [") and "Traceback" not in err
