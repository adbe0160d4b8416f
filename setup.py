"""Package metadata for the ``repro`` library (``src/repro``).

There is no ``pyproject.toml``: this file is the whole declaration.
``python setup.py develop`` gives an editable install without the
``wheel`` package that PEP 660 editable installs require.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
