"""Each table writer against literal expected text.

The results are built by hand, so no network or BLAS runs. Rerun tests
compare one run of the writers with another and cannot see a format
drift; these pin the header, the %.17g floats (nan, -0, 1e-300), the
integer columns, the summary rows and the csv line ends.
"""

import math

import numpy as np
import pytest

from qgdream import tables
from qgdream.analysis import EntropyProfile, ShiftReport, WeightedActivationMap
from qgdream.dreaming import DreamEnsembleResult, DreamTrajectory, Snapshot
from qgdream.nn import TrainHistory
from qgdream.states import Property

NAN = math.nan
HALVES = ",".join(["0.5"] * 20)
PM_ZEROS = ",".join(["0"] * 46)  # the 46 PM entries between the first and the last
W_COLUMNS = ("w0,w1,w2,w3,w4,w5,w6,w7,w8,w9,w10,w11,"
             "w12,w13,w14,w15,w16,w17,w18,w19,w20,w21,w22,w23")
# a graph whose first four weights are the edge cases and the rest 0.5
GRAPH = np.array([0.1, -0.0, 1e-300, 1.0] + [0.5] * 20)
GRAPH_TEXT = "0.10000000000000001,-0,1e-300,1," + HALVES


def _pm(first, last):
    pm = np.zeros((3, 16))
    pm[0, 0], pm[2, 15] = first, last
    return pm


def _trajectory():
    return DreamTrajectory(Property.GHZ_FIDELITY, [
        Snapshot(0, GRAPH, 0.25, NAN),
        Snapshot(10, -GRAPH, -0.0, 1e-300)])


TRAJECTORY = [
    "step," + W_COLUMNS + ",predicted,true",
    "0," + GRAPH_TEXT + ",0.25,nan",
    "10,-0.10000000000000001,0,-1e-300,-1," + HALVES.replace("0.5", "-0.5") + ",-0,1e-300",
]


def _ensemble():
    # run 1 failed, so its id is missing from the table
    return DreamEnsembleResult(Property.GHZ_FIDELITY, np.array([0.125, 1e-300]),
                               np.array([0.1, 1.0]), np.zeros((2, 24)), failures=[1])


ENSEMBLE = [
    "run,initial_true,final_true",
    "0,0.125,0.10000000000000001",
    "2,1e-300,1",
]


def _neuron_dreams():
    return np.array([GRAPH, np.zeros(24)]), np.array([_pm(0.25, 1e-300), _pm(-0.0, NAN)])


NEURON_DREAMS = [
    "init," + W_COLUMNS
    + ",p_H_0,p_H_1,p_H_2,p_H_3,p_H_4,p_H_5,p_H_6,p_H_7"
    + ",p_H_8,p_H_9,p_H_10,p_H_11,p_H_12,p_H_13,p_H_14,p_H_15"
    + ",p_V_0,p_V_1,p_V_2,p_V_3,p_V_4,p_V_5,p_V_6,p_V_7"
    + ",p_V_8,p_V_9,p_V_10,p_V_11,p_V_12,p_V_13,p_V_14,p_V_15"
    + ",p_D_0,p_D_1,p_D_2,p_D_3,p_D_4,p_D_5,p_D_6,p_D_7"
    + ",p_D_8,p_D_9,p_D_10,p_D_11,p_D_12,p_D_13,p_D_14,p_D_15",
    "0," + GRAPH_TEXT + ",0.25," + PM_ZEROS + ",1e-300",
    "1," + ",".join(["0"] * 24) + ",-0," + PM_ZEROS + ",nan",
]


def _entropy_profile():
    # a single-spike neuron has entropy -0.0
    return EntropyProfile([np.array([1.5, NAN]), np.array([0.1, -0.0])])


ENTROPY_PROFILE = [
    "layer,neuron,entropy",
    "1,0,1.5",
    "1,1,nan",
    "2,0,0.10000000000000001",
    "2,1,-0",
    "1,mean,1.5",
    "1,dead,1",
    "2,mean,0.050000000000000003",
    "2,dead,0",
]


def _activation_map():
    first = np.array([[1.0, 0.01, 0.25], [1e-300, 0.5, 0.1]])
    second = np.array([[0.75, 0.0]])
    # the masks are set by hand, so a kept entry need not clear the threshold
    masks = [np.array([[True, False, True], [True, True, True]]),
             np.array([[True, False]])]
    return WeightedActivationMap([first, second], masks, 0.05, 2.0)


ACTIVATION_MAP = [
    "layer,from_index,to_index,value",
    "1,0,0,1",
    "1,2,0,0.25",
    "1,0,1,1e-300",
    "1,1,1,0.5",
    "1,2,1,0.10000000000000001",
    "2,0,0,0.75",
]


def _shift_report():
    return ShiftReport(np.array([2, 0]), np.array([1, 1]), np.array([0.0, 0.5, 1.0]),
                       0.1, NAN, 1e-300, 1.0, 0.5, 0.5)


SHIFT_REPORT = [
    "bin_lo,bin_hi,initial_count,final_count",
    "0,0.5,2,1",
    "0.5,1,0,1",
    "mean_initial,0.10000000000000001,,",
    "mean_final,nan,,",
    "max_initial,1e-300,,",
    "max_final,1,,",
    "fraction_above_0.5,0.5,,",
]


def _history():
    return TrainHistory([0.25, 1e-300], [0.1, NAN], [1e-3, 5e-4])


HISTORY = [
    "epoch,train_mse,test_mse,learning_rate",
    "1,0.25,0.10000000000000001,0.001",
    "2,1e-300,nan,0.00050000000000000001",
]


@pytest.mark.parametrize("writer, build, lines", [
    pytest.param(tables.write_trajectory, _trajectory, TRAJECTORY, id="trajectory"),
    pytest.param(tables.write_ensemble, _ensemble, ENSEMBLE, id="ensemble"),
    pytest.param(tables.write_neuron_dreams, _neuron_dreams, NEURON_DREAMS, id="neuron_dreams"),
    pytest.param(tables.write_entropy_profile, _entropy_profile, ENTROPY_PROFILE,
                 id="entropy_profile"),
    pytest.param(tables.write_activation_map, _activation_map, ACTIVATION_MAP,
                 id="activation_map"),
    pytest.param(tables.write_shift_report, _shift_report, SHIFT_REPORT, id="shift_report"),
    pytest.param(tables.write_history, _history, HISTORY, id="history"),
])
def test_table_text(tmp_path, writer, build, lines):
    path = tmp_path / "table.csv"
    writer(build(), path)
    assert path.read_bytes().decode() == "".join(line + "\r\n" for line in lines)
